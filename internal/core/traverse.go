package core

import (
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// sweeper is what every engine traversal holds: the run's operator,
// executor, per-worker updaters, scratch, chunk grain and control block.
// filter is the strategy's one per-run difference in where vertices are
// filtered. Eager bins hold stale copies, so an eager frontier vertex is
// stale-filtered and finalized one at a time as it is swept (admit). A lazy
// frontier comes filtered from Next and is finalized as a whole before the
// sweep (finalizeAll).
type sweeper struct {
	o      *Ordered
	ex     *parallel.Executor
	sc     *scratch
	ups    []*Updater
	grain  int
	ctl    *runCtl
	filter bool
}

// finalizeAll finalizes a lazy frontier before its sweep, so updates to its
// vertices within the round are rejected (k-core: coreness is fixed at
// dequeue).
func (s *sweeper) finalizeAll(frontier []uint32) {
	if s.filter || s.o.fin == nil {
		return
	}
	for _, v := range frontier {
		s.o.fin.TrySet(v)
	}
}

// admit is the eager filter: v, whose priority the caller loaded as p, is
// swept only if it still belongs to bucket bid (GAPBS's stale-entry filter)
// and, under FinalizeOnPop, this call is the one that finalizes it.
func (o *Ordered) admit(v uint32, p, bid int64) bool {
	if b := o.bucketOf(p); b == bucket.NullBkt || b < bid {
		return false
	}
	return o.fin == nil || o.fin.TrySet(v)
}

// pushTrav is the SparsePush traversal (paper Figure 9(a)) for both bucket
// strategies: workers claim dynamic chunks of the frontier through one
// atomic cursor and relax the out-edges of each vertex with atomic updates
// into their Updater's sink — thread-local bins under eager, the outEdges
// buffer under lazy. Under eager_with_fusion each worker then keeps
// processing its own current-bucket bin while it stays under the fusion
// threshold, without any global synchronization (Figure 7, lines 14–21).
type pushTrav struct {
	sweeper
	bins   []*bucket.LocalBins // the eager sink, for the fusion tail
	fusion bool
	cursor atomic.Int64

	// body is built once per run (a method value handed to the executor
	// allocates on every call); bid and frontier are the round it sweeps.
	body     func(worker int)
	bid      int64
	frontier []uint32
}

// relax sweeps one round. A frontier that fits in one chunk runs on the
// caller, as ForChunks runs it: the other workers would find no chunk to
// claim, and their current-bucket bins are empty, so fusion has nothing for
// them either.
func (t *pushTrav) relax(bid, _ int64, frontier []uint32) ([]uint32, bool) {
	t.finalizeAll(frontier)
	if t.body == nil {
		t.body = t.sweep
	}
	t.cursor.Store(0)
	t.bid, t.frontier = bid, frontier
	if len(frontier) <= t.grain {
		t.sweep(0)
	} else {
		t.ex.Run(t.body)
	}
	t.frontier = nil
	return t.sc.collect(t.ups), t.ctl.aborted() != abortNone
}

// sweep is one worker's share of a round: dynamic chunks of the shared
// frontier, then (eager_with_fusion) its own current-bucket bin.
func (t *pushTrav) sweep(worker int) {
	defer t.ctl.contain(worker)
	bid, frontier := t.bid, t.frontier
	u := t.ups[worker]
	for {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		lo := int(t.cursor.Add(int64(t.grain))) - t.grain
		if lo >= len(frontier) {
			break
		}
		t.visit(frontier[lo:min(lo+t.grain, len(frontier))], bid, u)
	}
	if !t.fusion {
		return
	}
	my := t.bins[worker]
	for {
		// The fusion checkpoint also breaks fusion livelocks: a UDF that
		// keeps re-inserting into the current bucket spins here without
		// ever reaching a global barrier, so this is the only point its
		// round deadline is judged.
		if t.ctl.checkpoint(PhaseFusion, worker) {
			return
		}
		sz := my.Len(bid)
		if sz == 0 || sz > t.o.Cfg.FusionThreshold {
			break
		}
		u.fused++
		t.visit(my.Take(bid), bid, u)
	}
}

// visit sweeps the out-edges of each vertex of vs, which belong to bucket
// bid, applying the eager filter when the strategy needs it.
func (t *pushTrav) visit(vs []uint32, bid int64, u *Updater) {
	o, filter := t.o, t.filter
	for _, v := range vs {
		p := atomicutil.Load(&o.Prio[v])
		if filter && !o.admit(v, p, bid) {
			continue
		}
		u.processed++
		o.sweepOut(v, p, u)
	}
}

// pullTrav is the DensePull traversal (paper Figure 9(b)) for both bucket
// strategies: a serial mark of the dense frontier map, a parallel in-edge
// sweep over all vertices, and a serial clear. Each destination belongs to
// the one worker whose chunk holds it, so its updates need no CAS loop, and
// a changed destination enters that worker's sink once.
type pullTrav struct {
	sweeper
	inFron []bool
	body   func(lo, hi, worker int) // built once per run, like pushTrav's
}

func (t *pullTrav) relax(bid, _ int64, frontier []uint32) ([]uint32, bool) {
	o := t.o
	t.finalizeAll(frontier)
	for _, v := range frontier {
		if !t.filter || o.admit(v, atomicutil.Load(&o.Prio[v]), bid) {
			t.inFron[v] = true
		}
	}
	if t.body == nil {
		t.body = t.sweep
	}
	t.ex.ForChunks(o.G.NumVertices(), t.grain, t.body)
	for _, v := range frontier {
		t.inFron[v] = false
	}
	return t.sc.collect(t.ups), t.ctl.aborted() != abortNone
}

func (t *pullTrav) sweep(lo, hi, worker int) {
	defer t.ctl.contain(worker)
	if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
		return
	}
	u := t.ups[worker]
	for v := lo; v < hi; v++ {
		t.o.processPull(uint32(v), t.inFron, u)
	}
}

// passTrav runs a pass operator's vertex passes (Ordered.Passes) over a
// lazy frontier, one ForChunks barrier each. What they re-file with
// Updater.SetPriority reaches the seam in the updaters' buffers.
type passTrav struct {
	sweeper
	bodies   []func(lo, hi, worker int) // one per pass, built once per run
	frontier []uint32
}

func (t *passTrav) relax(_, _ int64, frontier []uint32) ([]uint32, bool) {
	for i := len(t.bodies); i < len(t.o.Passes); i++ {
		pass := t.o.Passes[i]
		t.bodies = append(t.bodies, func(lo, hi, worker int) {
			defer t.ctl.contain(worker)
			if u := t.ups[worker]; !t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				u.relaxations += pass(t.frontier[lo:hi], worker, u)
			}
		})
	}
	t.ups[0].processed += int64(len(frontier))
	t.frontier = frontier
	for _, body := range t.bodies {
		if t.ctl.aborted() == abortNone {
			t.ex.ForChunks(len(frontier), t.grain, body)
		}
	}
	t.frontier = nil
	return t.sc.collect(t.ups), t.ctl.aborted() != abortNone
}

// sweepOut applies the operator to every out-edge of v, whose priority the
// caller loaded once as p. The MinPlus loop relaxes from that one load:
// priorities only fall, and if v's falls mid-sweep, the write that lowered
// it re-queued v, so v is swept again from the lower value.
func (o *Ordered) sweepOut(v uint32, p int64, u *Updater) {
	g := o.G
	neigh := g.OutNeigh(v)
	wts := g.OutWts(v)
	if o.Relax != MinPlus {
		for i, d := range neigh {
			var wt int32
			if wts != nil {
				wt = wts[i]
			}
			u.relaxations++
			o.Apply(v, d, wt, u)
		}
		return
	}
	u.relaxations += int64(len(neigh))
	wts = wts[:len(neigh)] // validate guarantees weights; elides the bounds check
	prio, fin := o.Prio, o.fin
	for i, d := range neigh {
		np := p + int64(wts[i])
		if np < atomicutil.Load(&prio[d]) && (fin == nil || !fin.IsSet(d)) && atomicutil.WriteMin(&prio[d], np) {
			u.record(d, np)
		}
	}
}

// processPull applies the operator to the in-edges of v that originate in
// the dense frontier. v is owned by exactly one worker this round, so its
// priority updates need no CAS loop.
func (o *Ordered) processPull(v uint32, inFron []bool, u *Updater) {
	if o.fin != nil && o.fin.IsSet(v) {
		return // finalized vertices accept no further updates
	}
	g := o.G
	neigh := g.InNeighbors(v)
	wts := g.InWeights(v)
	touched := false
	for i, src := range neigh {
		if !inFron[src] {
			continue
		}
		var wt int32
		if wts != nil {
			wt = wts[i]
		}
		u.relaxations++
		if o.Relax == MinPlus {
			u.UpdatePriorityMin(v, atomicutil.Load(&o.Prio[src])+int64(wt))
		} else {
			o.Apply(src, v, wt, u)
		}
		touched = true
	}
	if touched {
		u.processed++
	}
}
