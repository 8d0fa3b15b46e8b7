package core

import (
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// eagerBins is the bucketSource for eager bucket update (paper Figure 6):
// per-worker thread-local bins written directly during edge relaxation.
// next() is the paper's barrier-time min-reduction — the minimum non-empty
// bucket across all workers' bins, gathered into one shared frontier.
// update() is a no-op because eager traversals re-bucket inline.
type eagerBins struct {
	o    *Ordered
	bins []*bucket.LocalBins
	sc   *scratch
	cur  int64 // current bucket; re-inserts into it are reprocessed
}

func (e *eagerBins) next() (int64, []uint32) {
	nb := bucket.NullBkt
	for _, b := range e.bins {
		if p := b.MinNonEmpty(e.cur); p != bucket.NullBkt && p < nb {
			nb = p
		}
	}
	if nb == bucket.NullBkt {
		return bucket.NullBkt, nil
	}
	fr := e.sc.frontier[:0]
	for _, b := range e.bins {
		fr = append(fr, b.Take(nb)...)
	}
	e.sc.frontier = fr
	e.cur = nb
	return nb, fr
}

func (e *eagerBins) update(ids []uint32) {}

func (e *eagerBins) finish(st *Stats) {
	for _, b := range e.bins {
		st.BucketInserts += b.Inserts
	}
}

// eagerPush is the SparsePush traversal over eager bins: workers drain
// dynamic chunks of the shared frontier, relaxing out-edges with atomic
// write-min into their own bins, then (for eager_with_fusion) keep
// processing their current-priority local bin while it stays under the
// fusion threshold, without any global synchronization (Figure 7, lines
// 14–21).
type eagerPush struct {
	o      *Ordered
	ex     *parallel.Executor
	ups    []*Updater
	bins   []*bucket.LocalBins
	fusion bool
	grain  int
	ctl    *runCtl
	cursor atomic.Int64

	// body is built once and reused every round (a closure literal handed to
	// the executor escapes to the heap on every call); bid and frontier are
	// the round it sweeps.
	body     func(worker int)
	bid      int64
	frontier []uint32
}

func (t *eagerPush) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	if t.body == nil {
		t.body = t.sweep
	}
	t.cursor.Store(0)
	t.bid, t.frontier = bid, frontier
	t.ex.Run(t.body)
	t.frontier = nil
	return nil, false, t.ctl.aborted() != abortNone
}

// sweep is one worker's share of a round: dynamic chunks of the shared
// frontier, then (eager_with_fusion) its own current-bucket bin while that
// stays under the fusion threshold.
func (t *eagerPush) sweep(worker int) {
	o, bid, frontier := t.o, t.bid, t.frontier
	fsize := len(frontier)
	u := t.ups[worker]
	for {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		lo := int(t.cursor.Add(int64(t.grain))) - t.grain
		if lo >= fsize {
			break
		}
		hi := lo + t.grain
		if hi > fsize {
			hi = fsize
		}
		for _, v := range frontier[lo:hi] {
			o.processPush(v, bid, u)
		}
	}
	if !t.fusion {
		return
	}
	my := t.bins[worker]
	for {
		// The fusion checkpoint also breaks fusion livelocks: a UDF that
		// keeps re-inserting into the current bucket spins here without
		// ever reaching a global barrier, so this is the only point a
		// watchdog abort can interrupt it.
		if t.ctl.checkpoint(PhaseFusion, worker) {
			return
		}
		sz := my.Len(bid)
		if sz == 0 || sz > o.Cfg.FusionThreshold {
			break
		}
		mine := my.Take(bid)
		u.fused++
		for _, v := range mine {
			o.processPush(v, bid, u)
		}
	}
}

// eagerPull is the DensePull traversal over eager bins: a serial mark of
// the dense frontier map (with the stale filter and finalize-on-pop), a
// parallel in-edge sweep over all vertices, and a serial clear. Destination
// updates need no atomics — each vertex is owned by one worker (Figure
// 9(b)) — and land in the owning worker's bins.
type eagerPull struct {
	o      *Ordered
	ex     *parallel.Executor
	ups    []*Updater
	inFron []bool
	grain  int
	ctl    *runCtl
}

func (t *eagerPull) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	o := t.o
	for _, v := range frontier {
		if o.bucketOf(atomicutil.Load(&o.Prio[v])) != bid {
			continue // stale: already handled in an earlier bucket
		}
		if o.fin != nil && !o.fin.TrySet(v) {
			continue
		}
		t.inFron[v] = true
	}
	n := o.G.NumVertices()
	t.ex.ForChunks(n, t.grain, func(lo, hi, worker int) {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		u := t.ups[worker]
		for v := lo; v < hi; v++ {
			o.processPull(uint32(v), t.inFron, u)
		}
	})
	for _, v := range frontier {
		t.inFron[v] = false
	}
	return nil, true, t.ctl.aborted() != abortNone
}

// processPush sweeps the out-edges of v if v still belongs to the current
// bucket (GAPBS's stale-entry filter) and, under FinalizeOnPop, has not
// already been processed.
func (o *Ordered) processPush(v uint32, curBin int64, u *Updater) {
	p := atomicutil.Load(&o.Prio[v])
	b := o.bucketOf(p)
	if b == bucket.NullBkt || b < curBin {
		return // stale: already handled in an earlier bucket
	}
	if o.fin != nil && !o.fin.TrySet(v) {
		return // already finalized (k-core processes each vertex once)
	}
	u.processed++
	o.sweepOut(v, p, u)
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
