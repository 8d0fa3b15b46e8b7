package livegraph

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"graphit/internal/graph"
	"graphit/internal/obs"
)

// A plane is one weight pair (Wts, InWts) that this Live allocated itself,
// so it may be written again once no snapshot reads it. A weight-only batch
// costs the ops since the plane it lands in was last current — not a copy
// of every weight — because that plane only needs the patches it missed.
type plane struct {
	wts, inWts []graph.Weight
	gen        uint64 // topology generation the arrays are laid out for
	seq        uint64 // patches of that generation already written into them
	// saved holds the contents while the arrays hold the -1 poison: a reader
	// that outlived its Release computes with negative weights, which the
	// drills assert never happens.
	saved *plane
}

const (
	// maxFreePlanes bounds the retired planes kept for reuse. A writer with
	// no readers ping-pongs between two planes (one current, one free);
	// every epoch a reader still pins holds one more.
	maxFreePlanes = 4
	// copyPerPatch is how many edges' weights a copy streams in the time one
	// logged patch takes (measured ~8 on the 1.5 M-edge R-MAT: 8 ns a patch,
	// 1.1 ns a copied edge). A plane more than edges/copyPerPatch patches
	// behind is dropped; 16 drops at half the break-even, which keeps the
	// log (24 B a patch, trimmed at twice the reach) under half a plane.
	copyPerPatch = 16
	minLag       = 64
)

// planes is the recycling state of one Live: the patch log of the current
// topology generation and the retired planes still within its reach. Only
// the writer (under Live.wmu) appends to the log, takes planes and changes
// the generation; any goroutine's last Release retires a plane, so the
// shared fields sit under mu.
type planes struct {
	mu     sync.Mutex
	gen    uint64
	log    []graph.WeightPatch // patches base..head of gen; at least the last maxLag
	base   uint64
	maxLag uint64
	free   []*plane // all of gen, stalest first; one may age out of reach here
	poison bool     // overwrite retired planes with -1 until reuse: test binaries only

	recycled, copies, catchup *obs.Counter
}

// reach is the lag beyond which a plane over this many edges is dropped.
func reach(edges int) uint64 { return uint64(max(edges/copyPerPatch, minLag)) }

func (p *planes) init(edges int, recycled, copies, catchup *obs.Counter) {
	p.maxLag = reach(edges)
	p.poison = testing.Testing()
	p.recycled, p.copies, p.catchup = recycled, copies, catchup
}

// head is the sequence number a plane current in this generation carries.
func (p *planes) head() uint64 { return p.base + uint64(len(p.log)) }

// reachable reports that catching pl up is cheaper than a copy.
func (p *planes) reachable(pl *plane) bool { return p.head()-pl.seq <= p.maxLag }

// retire offers a plane for reuse; called exactly once per plane, at its
// snapshot's last Release. It is kept, in age order, if it belongs to the
// current generation and is within reach; the stalest goes when the list
// is full.
func (p *planes) retire(pl *plane) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl.gen != p.gen || !p.reachable(pl) {
		return
	}
	if p.poison {
		pl.saved = &plane{wts: slices.Clone(pl.wts), inWts: slices.Clone(pl.inWts)}
		for _, ws := range [][]graph.Weight{pl.wts, pl.inWts} {
			for i := range ws {
				ws[i] = -1
			}
		}
	}
	at, _ := slices.BinarySearchFunc(p.free, pl, func(a, b *plane) int { return cmp.Compare(a.seq, b.seq) })
	p.free = slices.Insert(p.free, at, pl)
	if len(p.free) > maxFreePlanes {
		p.free = slices.Delete(p.free, 0, 1)
	}
}

// writable returns a plane holding exactly g's weights that nobody reads:
// the freshest retired plane caught up from the log, or a copy of g's pair
// when none is within reach. g must be the current snapshot's graph.
func (p *planes) writable(g *graph.Graph) *plane {
	p.mu.Lock()
	var pl *plane
	if last := len(p.free) - 1; last >= 0 && p.reachable(p.free[last]) {
		pl = p.free[last]
		p.free = slices.Delete(p.free, last, last+1)
	} else {
		p.free = nil // the freshest is out of reach, so all are
	}
	p.mu.Unlock()
	if pl == nil {
		p.copies.Inc()
		return &plane{wts: slices.Clone(g.Wts), inWts: slices.Clone(g.InWts), gen: p.gen, seq: p.head()}
	}
	if s := pl.saved; s != nil {
		notPoison := func(w graph.Weight) bool { return w != -1 }
		if slices.ContainsFunc(pl.wts, notPoison) || slices.ContainsFunc(pl.inWts, notPoison) {
			panic("livegraph: a retired weight plane was written before its reuse")
		}
		copy(pl.wts, s.wts)
		copy(pl.inWts, s.inWts)
		pl.saved = nil
	}
	missed := p.log[pl.seq-p.base:]
	graph.ApplyWeightPatches(pl.wts, pl.inWts, missed)
	p.recycled.Inc()
	p.catchup.Add(int64(len(missed)))
	return pl
}

// adopt wraps the weight pair of a graph this Live just built (a splice or
// a rebuild) as the first plane of the next generation; nil if unweighted.
func (p *planes) adopt(g *graph.Graph) *plane {
	if !g.Weighted() {
		return nil
	}
	return &plane{wts: g.Wts, inWts: g.InWts, gen: p.gen + 1}
}

// commit records that pl just became the current snapshot's plane, with ps
// the patches its batch wrote: a plane of the current generation extends
// the log, a plane of the next generation starts it over — the old log's
// positions, and every plane laid out for them, mean nothing to it.
func (p *planes) commit(pl *plane, ps []graph.WeightPatch) {
	if pl == nil {
		return // nets-to-nothing batch or unweighted graph: nothing moved
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl.gen != p.gen {
		p.gen, p.log, p.base, p.free = pl.gen, p.log[:0], 0, nil
		p.maxLag = reach(len(pl.wts))
		return
	}
	p.log = append(p.log, ps...)
	// Trim by copying down once the log is twice its reach: the backing
	// array stops growing, so a steady writer allocates nothing here.
	if drop := len(p.log) - int(p.maxLag); drop >= int(p.maxLag) {
		p.log = p.log[:copy(p.log, p.log[drop:])]
		p.base += uint64(drop)
	}
	pl.seq = p.head()
}
