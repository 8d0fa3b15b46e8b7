package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"graphit/internal/bucket"
	"graphit/internal/graph"
	"graphit/internal/parallel"
)

// MaxLanes bounds the lane count of one multi-source run.
const MaxLanes = 64

// MultiOrdered executes k single-source ∆-stepping operators ("lanes") — the
// min-plus relaxation dist[d] = min(dist[d], dist[s]+w) of paper Figure 3 —
// as shared round loops over Julienne bucket structures. Each lane's
// priority vector converges to exactly the fixpoint an independent
// single-source run would reach (min-updates are monotone and
// order-independent), while round barriers and bucket maintenance are paid
// once per lane group instead of once per lane.
//
// It always runs MinPlus, so it has no Relax or Apply field: the operator is
// not a choice. There is one engine, the serial lane kernel (see laneTrav) —
// a serial MinPlus body over k priority planes — for every lane count and
// configuration. Cfg.Workers sizes the run: with W workers (0 = GOMAXPROCS)
// the k lanes split into min(k, W) lane groups — contiguous lane ranges, each
// one serial kernel run with its own bucket structure on its own executor
// worker — and one group (W = 1 or k = 1) runs on the calling goroutine.
// Only the lazy strategy with lower_first (increasing) order is supported,
// and a faulted multi run fails with partial per-lane stats, like any run.
// Direction and Grain are hints a multi run ignores: the kernel pushes and
// needs no in-edges.
type MultiOrdered struct {
	G *graph.Graph
	// Lanes[l] is lane l's priority vector (e.g. dist for SSSP) — exactly the
	// Prio an independent single-source run would own. The run mutates it in
	// place; after a clean return it equals the independent run's result
	// element-wise.
	Lanes [][]int64
	Order bucket.Order
	// Stops holds optional per-lane early-termination conditions: nil, or one
	// entry per lane (entries may be nil). A stopped lane does no further edge
	// work — its remaining bucket entries drain without sweeps — and the run
	// ends when every lane has stopped or exhausted its buckets.
	Stops []StopFunc
	// Sources[l] is lane l's start vertex. A lane whose source priority is
	// Unreached is inert (no work, untouched vector).
	Sources []graph.VertexID
	// Trace, if set, observes the run: one RunStart and RunEnd, and every
	// lane group's rounds (per-round events carry totals across the group's
	// lanes).
	Trace Tracer

	Cfg Config
}

// LaneStats is the per-lane slice of a multi-source run's counters.
type LaneStats struct {
	// Relaxations counts edge relaxations charged to this lane.
	Relaxations int64 `json:"relaxations"`
	// Processed counts vertex dequeues swept on behalf of this lane.
	Processed int64 `json:"processed"`
}

// MultiStats reports one multi-source run: the shared round-loop counters
// (rounds, syncs, bucket work are paid once per lane group, and summed over
// the groups) plus the per-lane relaxation/processed split.
type MultiStats struct {
	Stats
	Lanes []LaneStats `json:"lanes"`
}

// Lane returns lane l's view of the run's counters: the shared round totals
// with Relaxations/Processed scoped to that lane. An out-of-range l returns
// the shared Stats unchanged.
func (ms MultiStats) Lane(l int) Stats {
	st := ms.Stats
	if l >= 0 && l < len(ms.Lanes) {
		st.Relaxations = ms.Lanes[l].Relaxations
		st.Processed = ms.Lanes[l].Processed
	}
	return st
}

// padPow2 rounds n up to a power of two, so a (lane, vertex) id splits with a
// shift and a mask.
func padPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// MaxLanesFor returns the most lanes one multi-source run over an n-vertex
// graph may carry: MaxLanes, or fewer when k·nPad (lane, vertex) ids would
// overflow the 32-bit id space.
func MaxLanesFor(n int) int {
	if fit := uint64(1<<32) / uint64(padPow2(n)); fit < MaxLanes {
		return int(fit)
	}
	return MaxLanes
}

func (mo *MultiOrdered) validate() error {
	if mo.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	if mo.Order != bucket.Increasing {
		return fmt.Errorf("core: multi-source runs support lower_first (increasing) order only")
	}
	if mo.Cfg.Strategy != Lazy {
		return fmt.Errorf("core: multi-source runs require the lazy strategy (got %s)", mo.Cfg.Strategy)
	}
	k := len(mo.Lanes)
	n := mo.G.NumVertices()
	if max := MaxLanesFor(n); k < 1 || k > max {
		return fmt.Errorf("core: multi-source runs over %d vertices take 1..%d lanes (got %d)", n, max, k)
	}
	if len(mo.Sources) != k {
		return fmt.Errorf("core: %d sources for %d lanes", len(mo.Sources), k)
	}
	if mo.Stops != nil && len(mo.Stops) != k {
		return fmt.Errorf("core: %d stop conditions for %d lanes", len(mo.Stops), k)
	}
	for l, p := range mo.Lanes {
		if len(p) != n {
			return fmt.Errorf("core: lane %d priority vector has %d entries for %d vertices", l, len(p), n)
		}
		v := mo.Sources[l]
		if int(v) >= n {
			return fmt.Errorf("core: lane %d source vertex %d out of range (graph has %d vertices)", l, v, n)
		}
		if p[v] < 0 {
			return fmt.Errorf("core: lane %d source vertex %d has negative priority %d (priorities must be non-negative)", l, v, p[v])
		}
	}
	return nil
}

// Run executes the multi-source operator to completion.
func (mo *MultiOrdered) Run() (MultiStats, error) {
	return mo.RunContext(context.Background())
}

// RunContext executes the multi-source operator under ctx with the same
// cancellation, round-deadline, and panic-containment envelope as
// Ordered.RunContext. On a
// contained fault or cancellation the lane vectors hold a partially-relaxed
// (still monotone-safe) state and MultiStats carries the partial counters.
//
// With W = Cfg.Workers (0 = GOMAXPROCS) and g = min(k, W) > 1, the k lanes
// run as g lane groups: contiguous lane ranges, each the serial kernel over
// its own bucket structure on one worker of the run's executor (see
// runGroups). g = 1 runs the kernel on the calling goroutine and acquires no
// executor.
func (mo *MultiOrdered) RunContext(ctx context.Context) (MultiStats, error) {
	mo.Cfg.normalize()
	if err := mo.validate(); err != nil {
		return MultiStats{}, err
	}
	k := len(mo.Lanes)
	ms := MultiStats{Lanes: make([]LaneStats, k)}
	face := &Ordered{G: mo.G, Order: mo.Order, Trace: mo.Trace, Cfg: mo.Cfg}
	tr := face.tracer(ctx)
	_, isNop := tr.(NopTracer)
	trace := !isNop
	if trace {
		tr.RunStart(face.runInfo(face.Cfg.Strategy.String(), mo.seeds()))
	}
	w := mo.Cfg.Workers
	if w <= 0 {
		w = parallel.Workers()
	}
	var err error
	if g := min(k, w); g > 1 {
		err = mo.runGroups(ctx, w, g, tr, trace, &ms)
	} else {
		err = mo.runKernel(ctx, newRunCtl(ctx), tr, trace, &ms.Stats, ms.Lanes)
	}
	if trace {
		tr.RunEnd(ms.Stats, err)
	}
	return ms, err
}

// seeds counts the lanes that are not inert: the run's initial frontier.
func (mo *MultiOrdered) seeds() int {
	n := 0
	for l, v := range mo.Sources {
		if mo.Lanes[l][v] != Unreached {
			n++
		}
	}
	return n
}

// runGroups runs the lanes as g contiguous lane groups on a w-worker
// executor, worker i running group i. Lane vectors are disjoint, so each
// group is an independent serial kernel run — its own laneTrav, state plane,
// bucket structure, scratch and runCtl (with its own deadline) — exactly the
// run a one-group RunMulti over those lanes would make. Per-lane stats land
// at their lane index and the shared counters are summed over the groups.
// The first group error is the run's error: it cancels the siblings, whose
// partial counters are still folded. The groups' Round events reach tr one
// at a time.
func (mo *MultiOrdered) runGroups(ctx context.Context, w, g int, tr Tracer, trace bool, ms *MultiStats) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctls := make([]*runCtl, g)
	for i := range ctls {
		ctls[i] = newRunCtl(ctx)
		ctls[i].worker = i
	}
	if trace {
		tr = &syncTracer{Tracer: tr}
	}
	sts := make([]Stats, g)
	var once sync.Once
	var first error
	k := len(mo.Lanes)
	ex := parallel.Acquire(w)
	ex.Run(func(i int) {
		if i >= g {
			return
		}
		lo, hi := i*k/g, (i+1)*k/g
		sub := &MultiOrdered{G: mo.G, Lanes: mo.Lanes[lo:hi], Order: mo.Order, Sources: mo.Sources[lo:hi], Cfg: mo.Cfg}
		if mo.Stops != nil {
			sub.Stops = mo.Stops[lo:hi]
		}
		if err := sub.runKernel(ctx, ctls[i], tr, trace, &sts[i], ms.Lanes[lo:hi]); err != nil {
			once.Do(func() {
				first = err
				// Cancel before flagging, so a sibling that sees the flag
				// returns the context's error.
				cancel()
				for _, c := range ctls {
					c.abort(abortCancel)
				}
			})
		}
	})
	parallel.Release(ex)
	for _, st := range sts {
		ms.Stats.add(st)
	}
	return first
}

// syncTracer serializes the lane groups' Round events into one Tracer.
type syncTracer struct {
	mu sync.Mutex
	Tracer
}

func (t *syncTracer) Round(ev RoundEvent) {
	t.mu.Lock()
	t.Tracer.Round(ev)
	t.mu.Unlock()
}

// runKernel runs the serial lane kernel over all of mo's lanes on the
// calling goroutine under ctx and ctl, folding the shared counters into st
// and the per-lane ones into lanes. RunStart and RunEnd are the caller's;
// tr sees only the rounds.
func (mo *MultiOrdered) runKernel(ctx context.Context, ctl *runCtl, tr Tracer, trace bool, st *Stats, lanes []LaneStats) error {
	k := len(mo.Lanes)
	nPad := padPow2(mo.G.NumVertices())

	// face is the engine's view of the run: engine.run reads only Cfg and
	// Stop from it. Prio stays nil — the lane kernel reads and writes the
	// lane vectors directly.
	face := &Ordered{G: mo.G, Order: mo.Order, Cfg: mo.Cfg}
	sc := getScratch()
	t := &laneTrav{
		mo: mo, k: k, nPad: nPad,
		nLog:  uint(bits.TrailingZeros(uint(nPad))),
		wts:   mo.G.Wts,
		state: sc.getLaneState(k * nPad),
		casc:  sc.laneCasc[:0],
		part:  sc.lanePart,
		cnt:   make([]int, k+1),
		pos:   make([]int, k),
		stats: lanes,
	}
	if t.wts == nil {
		t.wts = make([]int32, len(mo.G.Neigh))
	}
	if mo.Stops != nil {
		t.stopped = make([]bool, k)
		face.Stop = t.stop
	}
	ids := t.seed()
	if len(ids) == 0 { // every lane inert
		putScratch(sc)
		return nil
	}

	disarm := ctl.arm(ctx, mo.Cfg.RoundTimeout)
	lz := bucket.NewLazyFrom(k*nPad, mo.Order, mo.Cfg.NumBuckets, t.bktOfID, ids)
	lz.SetSelfFiltered()
	ups := sc.getUpdaters(face, 1)
	t.lz, t.u, t.ctl = lz, ups[0], ctl
	src := &filedSource{lazySource{lz: lz}}
	e := &engine{o: face, src: src, push: t, ups: ups, ctl: ctl}

	runErr := e.run(ctx, tr, trace, st)
	src.finish(st)
	disarm()
	// A faulted or aborted round leaves the cascade and partition buffers
	// mid-use; only a clean run hands its (grown) scratch back to the pool.
	if ctl.clean() {
		sc.laneCasc, sc.lanePart = t.casc, t.part
		putScratch(sc)
	}
	return runErr
}

// lanePoll is how many ids a lane drain consumes between abort polls; a
// power of two, so the test is a mask.
const lanePoll = 1024

// laneTrav is the lane kernel: the one traversal behind MultiOrdered, and
// the state it sweeps. Ids are l<<nLog | v (nPad = n rounded up to a power of
// two); the priority planes are the original Lanes[l] slices — no copy, and
// each lane's relaxations enjoy the same packed wavefront locality an
// independent run does. It runs on one goroutine, so everything is plain
// loads and stores, and a winning relaxation moves the target id itself:
// same-bucket wins go onto an in-round cascade queue that bypasses the
// bucket structure entirely (the bulk of ∆-stepping's re-queues when ∆
// exceeds the typical weight — bucket fusion's idea), and cross-bucket wins
// are inserted directly at their new bucket, whose raw-slab extraction
// tolerates the stranded old copy. One round drains one bucket completely
// and returns no updated ids.
type laneTrav struct {
	mo      *MultiOrdered
	k, nPad int
	nLog    uint
	wts     []int32 // per-edge weights; all zero for an unweighted graph
	// state[id] is nonzero while id has a live entry queued at its current
	// priority's bucket (in a slab, the cascade queue, or an unswept frontier
	// slot), 0 otherwise. One byte per id instead of a consumed-at priority:
	// priorities only decrease, so a stranded copy always sits at a later
	// bucket than the live entry, which extracts first and clears the mark —
	// and this plane is 8x smaller than an int64 one, which matters because
	// it is the one randomly-indexed array every consume and every win must
	// touch.
	//
	// The nonzero value is bucketTag of the bucket the entry is queued at, so
	// the win path's "not queued at the target bucket" answer is one byte
	// compare. Tags keep only 7 bucket bits: a match is confirmed against the
	// bucket of the priority the win overwrote, because an id left at an
	// aliasing bucket ≥ 128 away would be swept late, and per-lane stops rely
	// on every id being swept in its own bucket.
	state []byte
	// stopped[l] is set between rounds once lane l's stop condition holds;
	// nil when the run has no Stops.
	stopped []bool

	lz   *bucket.Lazy
	u    *Updater // run totals, folded by the engine after every round
	ctl  *runCtl
	casc []uint32 // in-round cascade queue of same-bucket wins
	part []uint32 // slab ids scattered into per-lane segments
	cnt  []int    // per-lane segment bounds in part (len k+1)
	pos  []int    // scatter cursors (len k)

	stats []LaneStats // the run's MultiStats.Lanes
}

// bucketOfP is on the hot path of every win: Config.coarsen, a shift for
// the power-of-two ∆s tuning picks.
func (t *laneTrav) bucketOfP(p int64) int64 { return t.mo.Cfg.coarsen(p) }

// bucketTag is the state-byte value of an id queued at bucket b: the low 7
// bucket bits and a set live bit, so it is never zero.
func bucketTag(b int64) byte {
	return byte(b<<1) | 1
}

// bktOfID keys the shared buckets (consulted by window advances): a queued
// id maps to its current priority's bucket, a consumed id to NullBkt.
func (t *laneTrav) bktOfID(id uint32) int64 {
	if t.state[id] == 0 {
		return bucket.NullBkt
	}
	return t.bucketOfP(t.mo.Lanes[id>>t.nLog][int(id)&(t.nPad-1)])
}

// seed marks and returns the initial bucket population: one id per
// non-inert lane.
func (t *laneTrav) seed() []uint32 {
	ids := make([]uint32, 0, t.k)
	for l, v := range t.mo.Sources {
		if p := t.mo.Lanes[l][v]; p != Unreached {
			id := uint32(l<<t.nLog | int(v))
			t.state[id] = bucketTag(t.bucketOfP(p))
			ids = append(ids, id)
		}
	}
	return ids
}

// stop is the engine-facing StopFunc: it advances the per-lane stop
// conditions and halts the run only when every lane has stopped. A lane with
// a nil condition never stops early, so the run drains to the fixpoint.
func (t *laneTrav) stop(cur int64) bool {
	all := true
	for l, sf := range t.mo.Stops {
		if t.stopped[l] {
			continue
		}
		if sf != nil && sf(cur) {
			t.stopped[l] = true
			continue
		}
		all = false
	}
	return all
}

// relax consumes the extracted ids (raw slabs — the state plane is the
// stale/duplicate filter) and the cascade they trigger. An extracted id
// whose mark is set has its priority in the round's bucket: an entry is only
// ever filed at its priority's bucket, and an improvement that leaves that
// bucket files a fresh entry. A winning relaxation of an id already queued
// at the target bucket is skipped — its live entry (a cascade slot, an
// unswept frontier position, or a queued bucket copy) is swept at the
// improved priority when its turn comes.
//
// The slab is first scattered into per-lane segments, and each lane drains
// its segment plus the entire cascade it triggers before the next lane
// starts. Lanes never write each other's planes, so the reordering is
// inert; what it buys is locality — the hot working set of a drain is one
// lane's wavefront band instead of k interleaved planes. A stopped lane's
// segment is consumed (marks cleared) without edge work.
//
// Each cascade drains FIFO: a pushed id is swept only after everything
// queued before it, giving in-flight improvements time to land — a LIFO
// stack here triples the relaxation count by expanding non-final
// priorities depth-first.
//
// A drain can be one whole run (any ∆ above the graph's distances), so it
// keeps the engine's cancellation contract itself: besides the hooked
// checkpoint at each segment start, it asks ctl.stopped every lanePoll
// consumed ids — no hook — and a round timeout or a cancellation ends the
// round mid-drain, its partial counters folded.
func (t *laneTrav) relax(bid, curPrio int64, ids []uint32) ([]uint32, bool) {
	g := t.mo.G
	state := t.state
	off, adj, allWts := g.Off, g.Neigh, t.wts
	nLog := t.nLog
	vMask := uint32(t.nPad - 1)
	k := t.k

	part := ids
	cnt := t.cnt
	if k == 1 {
		cnt[0], cnt[1] = 0, len(ids)
	} else {
		for l := range cnt {
			cnt[l] = 0
		}
		for _, id := range ids {
			cnt[int(id>>nLog)+1]++
		}
		for l := 0; l < k; l++ {
			cnt[l+1] += cnt[l]
		}
		if cap(t.part) < len(ids) {
			t.part = make([]uint32, len(ids))
		}
		part = t.part[:len(ids)]
		pos := t.pos
		copy(pos, cnt[:k])
		for _, id := range ids {
			l := int(id >> nLog)
			part[pos[l]] = id
			pos[l]++
		}
	}

	casc := t.casc
	aborted := false
	for l := 0; l < k; l++ {
		seg := part[cnt[l]:cnt[l+1]]
		if len(seg) == 0 {
			continue
		}
		if t.stopped != nil && t.stopped[l] {
			for _, id := range seg {
				state[id] = 0
			}
			continue
		}
		if t.ctl.checkpoint(PhaseRelaxChunk, t.ctl.worker) {
			aborted = true
			break
		}
		dist := t.mo.Lanes[l]
		lBase := uint32(l) << nLog
		var proc, rlx int64
		casc = casc[:0]
		fi, ci := 0, 0
		for {
			var id uint32
			if fi < len(seg) {
				id = seg[fi]
				fi++
			} else if ci < len(casc) {
				id = casc[ci]
				ci++
			} else {
				break
			}
			if state[id] == 0 {
				continue // stale or duplicate copy
			}
			if proc&(lanePoll-1) == lanePoll-1 && t.ctl.stopped() {
				aborted = true
				break
			}
			state[id] = 0 // consume
			v := id & vMask
			p := dist[v]
			o0, o1 := off[v], off[v+1]
			neigh := adj[o0:o1]
			wts := allWts[o0:o1]
			wts = wts[:len(neigh)] // elides the bounds check below
			proc++
			rlx += int64(len(neigh))
			for i, d := range neigh {
				np := p + int64(wts[i])
				if old := dist[d]; np < old {
					dist[d] = np
					j := lBase | d
					nb := t.bucketOfP(np)
					tag := bucketTag(nb)
					if state[j] == tag && t.bucketOfP(old) == nb {
						continue // already queued at nb
					}
					state[j] = tag
					if nb == bid {
						casc = append(casc, j)
					} else {
						t.lz.Insert(j, nb)
					}
				}
			}
		}
		t.u.processed += proc
		t.u.relaxations += rlx
		t.stats[l].Processed += proc
		t.stats[l].Relaxations += rlx
		if aborted {
			break
		}
	}
	t.casc = casc[:0] // keep the grown queue for the next round
	return nil, aborted
}
