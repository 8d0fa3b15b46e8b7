package core

import (
	"math"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/histogram"
	"graphit/internal/parallel"
)

// lazySource is the bucketSource for lazy bucket update (paper Figure 5):
// a Julienne-style windowed bucket structure, extracted once per round and
// bulk-updated with the round's deduplicated changed-vertex buffer.
type lazySource struct {
	o  *Ordered
	lz *bucket.Lazy
}

// newLazySource builds the Julienne buckets over the initial active set.
// The bucket function consults the authoritative priority vector, so stale
// entries are filtered on extraction (§5.1's optimized interface). Like
// every other reader of the priority vector, it loads priorities atomically.
func (o *Ordered) newLazySource(active []uint32) *lazySource {
	bktOf := func(v uint32) int64 {
		if o.fin != nil && o.fin.IsSet(v) {
			return bucket.NullBkt
		}
		return o.bucketOf(atomicutil.Load(&o.Prio[v]))
	}
	lz := bucket.NewLazyFrom(o.G.NumVertices(), o.Order, o.Cfg.NumBuckets, bktOf, active)
	return &lazySource{o: o, lz: lz}
}

func (s *lazySource) next() (int64, []uint32) { return s.lz.Next() }

func (s *lazySource) update(ids []uint32) {
	if s.o.Cfg.NoDedup {
		// SparsePush without CAS dedup emits one id per winning relaxation,
		// so ids can hold duplicates — UpdateBuckets requires at most one
		// occurrence per vertex. Dedupe here, at the seam, so bucket inserts
		// (and Stats.BucketInserts) match the deduplicated configuration.
		ids = s.lz.DedupeIDs(ids)
	}
	s.lz.UpdateBuckets(ids)
}

func (s *lazySource) finish(st *Stats) {
	st.BucketInserts += s.lz.Inserts
	st.WindowAdvances += s.lz.Rebuckets
	st.Inversions += s.lz.Inversions
}

// lazyTrav is the edge-map traversal for the plain lazy strategy. It covers
// all three directions: SparsePush (atomic updates into a CAS-deduplicated
// per-worker buffer), DensePull (non-atomic owner updates, each changed
// destination appended once to its owner's buffer), and the per-round
// Hybrid choice — Ligra/Julienne's direction optimizer, pulling when the
// frontier's out-degree volume exceeds |E|/20.
type lazyTrav struct {
	o             *Ordered
	ex            *parallel.Executor
	sc            *scratch
	ups           []*Updater
	dedup         *atomicutil.Flags // nil under configDeduplication off
	inFron        []bool            // dense frontier map (pull only)
	grain         int
	pullThreshold int64
	ctl           *runCtl

	// Sweep bodies are built once and reused every round: a closure literal
	// in the hot path escapes to the heap on every call (its captures leak
	// into the executor), which alone breaks the zero-alloc steady state.
	pushBody func(lo, hi, worker int)
	pullBody func(lo, hi, worker int)
	curVerts []uint32 // pushBody's frontier for the current sweep
}

func (t *lazyTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	o := t.o
	if o.fin != nil {
		// Finalize dequeued vertices first so intra-bucket updates to them
		// are rejected (k-core: coreness is fixed at dequeue).
		for _, v := range frontier {
			o.fin.TrySet(v)
		}
	}
	pull := o.Cfg.Direction == DensePull
	if o.Cfg.Direction == Hybrid {
		// The direction optimizer's per-round decision — and its cost, an
		// out-degree sum over the frontier, the overhead the paper calls out
		// in Julienne's SSSP (§6.2).
		pull = o.G.TotalOutDegree(frontier)+int64(len(frontier)) > t.pullThreshold
	}
	for _, u := range t.ups {
		if pull {
			u.atomics, u.owned, u.dedup = false, true, nil
		} else {
			u.atomics, u.owned, u.dedup = true, false, t.dedup
		}
	}
	if pull {
		updated := t.pullRound(frontier)
		return updated, true, t.ctl.aborted() != abortNone
	}
	updated := t.pushRound(frontier)
	return updated, false, t.ctl.aborted() != abortNone
}

// pushRound applies the operator over the out-edges of the frontier with
// atomic updates, collecting changed vertices once each (CAS dedup) into
// per-worker buffers (the outEdges buffer of paper Figure 9(a)).
func (t *lazyTrav) pushRound(verts []uint32) []uint32 {
	if t.pushBody == nil {
		t.pushBody = func(lo, hi, worker int) {
			if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				return
			}
			o := t.o
			u := t.ups[worker]
			for _, v := range t.curVerts[lo:hi] {
				u.processed++
				o.sweepOut(v, atomicutil.Load(&o.Prio[v]), u)
			}
		}
	}
	t.curVerts = verts
	t.ex.ForChunks(len(verts), t.grain, t.pushBody)
	t.curVerts = nil
	updated := t.collect()
	if t.dedup != nil {
		t.dedup.ResetList(updated)
	}
	return updated
}

// pullRound applies the operator over the in-edges of all vertices against a
// dense frontier; destination updates need no atomics (paper Figure 9(b)).
// Each destination belongs to the one worker whose chunk holds it, so that
// worker's buffer already lists every changed destination once, and the
// round's changed set is their concatenation — as in pushRound.
func (t *lazyTrav) pullRound(verts []uint32) []uint32 {
	for _, v := range verts {
		t.inFron[v] = true
	}
	if t.pullBody == nil {
		t.pullBody = func(lo, hi, worker int) {
			if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				return
			}
			u := t.ups[worker]
			for v := lo; v < hi; v++ {
				t.o.processPull(uint32(v), t.inFron, u)
			}
		}
	}
	t.ex.ForChunks(t.o.G.NumVertices(), t.grain, t.pullBody)
	for _, v := range verts {
		t.inFron[v] = false
	}
	return t.collect()
}

// collect concatenates the per-worker update buffers into the run's reusable
// update buffer and empties them.
func (t *lazyTrav) collect() []uint32 {
	updated := t.sc.updated[:0]
	for _, u := range t.ups {
		updated = append(updated, u.out...)
		u.out = u.out[:0]
	}
	t.sc.updated = updated
	return updated
}

// constSumTrav implements the histogram reduction (paper Figure 10): count
// updates per destination over the frontier's out-edges, then apply the
// compiler-transformed UDF once per touched vertex.
type constSumTrav struct {
	o     *Ordered
	ex    *parallel.Executor
	sc    *scratch
	ups   []*Updater
	hist  *histogram.Counter
	grain int
	ctl   *runCtl

	countBody func(lo, hi, worker int) // built once per run, like pushBody
	curVerts  []uint32                 // countBody's frontier for the current sweep
}

func (t *constSumTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	o := t.o
	if o.fin != nil {
		for _, v := range frontier {
			o.fin.TrySet(v)
		}
	}
	if t.countBody == nil {
		t.countBody = func(lo, hi, worker int) {
			if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				return
			}
			u := t.ups[worker]
			for _, v := range t.curVerts[lo:hi] {
				u.processed++
				for _, d := range o.G.OutNeigh(v) {
					u.relaxations++
					if o.fin != nil && o.fin.IsSet(d) {
						continue
					}
					t.hist.Add(d, worker)
				}
			}
		}
	}
	t.curVerts = frontier
	t.ex.ForChunks(len(frontier), t.grain, t.countBody)
	t.curVerts = nil
	// Abort gate before Drain: the counting sweep above never touches the
	// priority vector, so an aborted round leaves Prio untouched. Past this
	// point the round always completes — Drain mutates Prio, and
	// updatePrioritySum is not idempotent, so it is never cut short.
	if t.ctl.aborted() != abortNone {
		return nil, false, true
	}
	floor := int64(math.MinInt64 + 1)
	if o.SumFloorIsCurrent {
		floor = curPrio
	}
	updated := t.sc.updated[:0]
	t.hist.Drain(func(v uint32, count int64) {
		if o.fin != nil && o.fin.IsSet(v) {
			return
		}
		p := o.Prio[v]
		if p == o.nullPrio() {
			return
		}
		// Transformed UDF (Figure 10 bottom): only vertices strictly after
		// the current priority move; the result is clamped at the floor.
		if o.Order == bucket.Increasing && p <= curPrio {
			return
		}
		if o.Order == bucket.Decreasing && p >= curPrio {
			return
		}
		next := p + o.SumConst*count
		if o.Order == bucket.Increasing && next < floor {
			next = floor
		}
		if next == p {
			return
		}
		o.Prio[v] = next
		updated = append(updated, v)
	})
	t.sc.updated = updated
	return updated, false, false
}
