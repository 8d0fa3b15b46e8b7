package core

import (
	"math"
	"runtime"
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/histogram"
)

// lazySource is the bucketSource for lazy bucket update (paper Figure 5):
// a Julienne-style windowed bucket structure, extracted once per round and
// bulk-updated with the round's changed-vertex buffer.
type lazySource struct {
	lz *bucket.Lazy
}

// newLazySource builds the Julienne buckets over the initial active set.
// The bucket function consults the authoritative priority vector, so stale
// entries are filtered on extraction (§5.1's optimized interface). Like
// every other reader of the priority vector, it loads priorities atomically.
func (o *Ordered) newLazySource(active []uint32) *lazySource {
	prio, fin, null, cfg := o.Prio, o.fin, o.nullPrio(), &o.Cfg
	bktOf := func(v uint32) int64 {
		if fin != nil && fin.IsSet(v) {
			return bucket.NullBkt
		}
		if p := atomicutil.Load(&prio[v]); p != null {
			return cfg.coarsen(p)
		}
		return bucket.NullBkt
	}
	return &lazySource{lz: bucket.NewLazyFrom(o.G.NumVertices(), o.Order, o.Cfg.NumBuckets, bktOf, active)}
}

func (s *lazySource) next() (int64, []uint32) { return s.lz.Next() }

// update files the round's changed vertices. The traversal's buffers list a
// vertex once per winning update that did not directly follow another win
// for it, and UpdateBuckets takes each vertex at most once, so the round's
// duplicates are dropped here, at the seam, in one serial pass.
func (s *lazySource) update(ids []uint32) int {
	ids = s.lz.DedupeIDs(ids)
	s.lz.UpdateBuckets(ids)
	return len(ids)
}

// filedSource is the lazy bucket source minus the bulk update, for the
// traversals that file every bucket move themselves (the constant-sum drain
// and the lane kernel), so a round hands the engine nothing to re-bucket.
type filedSource struct{ lazySource }

func (*filedSource) update(ids []uint32) int { return len(ids) }

func (s *lazySource) finish(st *Stats) {
	st.BucketInserts += s.lz.Inserts
	st.WindowAdvances += s.lz.Rebuckets
	st.Inversions += s.lz.Inversions
}

// constSumTrav implements the histogram reduction (paper Figure 10): count
// updates per destination over the frontier's out-edges, then apply the
// compiler-transformed UDF once per touched vertex.
//
// Counting is one plain increment per edge into the worker's own plane;
// finalized vertices carry the Counter's mark, so the count loop loads no
// finalized flag. A round large enough to share runs on every worker in
// one executor invocation: each worker counts chunks, seals its plane,
// meets the others at a barrier, and drains the Counter owner with its own
// id, writing the priorities of that owner's vertices and noting their new
// buckets. Workers are woken once per round, and the round then files the
// moved vertices into lz directly, so no bucket function runs for them.
type constSumTrav struct {
	sweeper
	hist *histogram.Counter
	lz   *bucket.Lazy // the engine's buckets

	// Bodies are built once per run, like pushTrav's; the fields after them
	// are their inputs and the shared round state of the current round.
	countBody func(lo, hi, worker int)
	drainBody func(worker int)
	roundBody func(worker int)
	curVerts  []uint32
	curPrio   int64
	floor     int64
	nextChunk atomic.Int64 // count chunks claimed
	arrived   atomic.Int64 // workers past the count phase
	left      atomic.Int64 // workers done with the round
	released  atomic.Bool  // the last arrival has decided whether to drain
	drain     atomic.Bool  // the decision: no abort
}

// inlineCount is the frontier out-edge count below which a constant-sum
// round runs on the calling goroutine. A parked worker starts 70–85 µs
// after it is woken (measured on a 2-vCPU VM), and a serial round costs
// about 6.5 ns per edge, so sharing a round saves at most half of it and
// breaks even near 25 000 edges; measured in process at W=2 against W=1,
// 2¹⁵ beat 2¹² by 5–7 % on symmetrized R-MAT 17/12 and the 350×350 road
// grid. Road k-core runs hundreds of rounds of about a thousand edges.
const inlineCount = 1 << 15

func (t *constSumTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool) {
	o := t.o
	if o.fin != nil {
		// Mark every frontier vertex, not only those this call finalizes:
		// a Manual loop's DequeueReadySet sets their flags first.
		for _, v := range frontier {
			o.fin.TrySet(v)
			t.hist.Finalize(v)
		}
	}
	if t.countBody == nil {
		t.buildBodies()
	}
	t.curVerts, t.curPrio, t.floor = frontier, curPrio, int64(math.MinInt64+1)
	if o.SumFloorIsCurrent {
		t.floor = curPrio
	}
	edges := o.G.TotalOutDegree(frontier)
	// Abort gate before the drain: the count never touches the priority
	// vector, so an aborted round leaves Prio untouched. Past the gate the
	// round always completes — the drain mutates Prio, and
	// updatePrioritySum is not idempotent, so it is never cut short.
	var drained bool
	if edges < inlineCount {
		t.hist.Begin(edges, 1)
		t.countBody(0, len(frontier), 0)
		if drained = t.ctl.aborted() == abortNone; drained {
			t.drainBody(0)
		}
	} else {
		t.hist.Begin(edges, t.hist.Workers())
		t.nextChunk.Store(0)
		t.arrived.Store(0)
		t.left.Store(0)
		t.released.Store(false)
		t.ex.Run(t.roundBody)
		drained = t.drain.Load()
	}
	t.curVerts = nil
	if !drained {
		return nil, true
	}
	for _, u := range t.ups {
		for i, v := range u.out {
			t.lz.Insert(v, u.outBkt[i])
		}
		u.outBkt = u.outBkt[:0]
	}
	return t.sc.collect(t.ups), false
}

// buildBodies builds the count, drain and parallel round bodies.
func (t *constSumTrav) buildBodies() {
	o := t.o
	t.countBody = func(lo, hi, worker int) {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		p := t.hist.Plane(worker)
		var relax int64
		for _, v := range t.curVerts[lo:hi] {
			ns := o.G.OutNeigh(v)
			relax += int64(len(ns))
			p.Add(ns...)
		}
		u := t.ups[worker]
		u.processed += int64(hi - lo)
		u.relaxations += relax
	}
	t.drainBody = func(worker int) {
		u := t.ups[worker]
		t.hist.Drain(worker, func(v uint32, count int64) { t.apply(u, v, count) })
	}
	t.roundBody = func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				// Record the fault, so the last arrival skips the drain,
				// then arrive and leave, so no sibling waits for this one.
				p := t.ctl.fault(r, worker)
				t.arrive()
				t.left.Add(1)
				panic(p)
			}
		}()
		n, grain := len(t.curVerts), int64(t.grain)
		for t.ctl.aborted() == abortNone {
			lo := t.nextChunk.Add(grain) - grain
			if lo >= int64(n) {
				break
			}
			t.countBody(int(lo), int(min(lo+grain, int64(n))), worker)
		}
		t.hist.Seal(worker)
		t.arrive()
		for i := 0; !t.released.Load(); i++ {
			spinYield(i)
		}
		if t.drain.Load() {
			t.drainBody(worker)
		}
		// The caller, worker 0, leaves last. Blocked in the executor's
		// join, it would resume on the processor of the worker whose exit
		// wakes it, away from the cache holding its plane, the priority
		// lines it drained and the buckets.
		t.left.Add(1)
		for i := 0; worker == 0 && int(t.left.Load()) < t.ex.Workers(); i++ {
			spinYield(i)
		}
	}
}

// spinYield is one step of a wait loop at step i: it yields the processor
// only after 2¹⁷ steps, about 100 µs on a 2-vCPU VM, longer than a parked
// worker takes to start. A worker that yielded at once would let a sibling
// not yet started by its own processor run in its place, swapping the two
// workers' planes between caches; one that never yielded would stall
// siblings waiting for its processor when a run has more workers than
// processors.
func spinYield(i int) {
	if i >= 1<<17 {
		runtime.Gosched()
	}
}

// arrive counts a worker out of the count phase. The last one decides, once
// for all workers, whether the round drains, and releases the others.
func (t *constSumTrav) arrive() {
	if int(t.arrived.Add(1)) == t.ex.Workers() {
		t.drain.Store(t.ctl.aborted() == abortNone)
		t.released.Store(true)
	}
}

// apply is the transformed UDF (Figure 10 bottom), run by v's owner with
// v's total count for the round: only vertices strictly after the current
// priority move, and the result is clamped at the floor. A vertex that
// moves is appended, with its new bucket, to the draining worker's buffer.
func (t *constSumTrav) apply(u *Updater, v uint32, count int64) {
	o := t.o
	p := o.Prio[v]
	if p == o.nullPrio() {
		return
	}
	if o.Order == bucket.Increasing && p <= t.curPrio {
		return
	}
	if o.Order == bucket.Decreasing && p >= t.curPrio {
		return
	}
	next := p + o.SumConst*count
	if o.Order == bucket.Increasing && next < t.floor {
		next = t.floor
	}
	if next == p {
		return
	}
	o.Prio[v] = next
	u.out = append(u.out, v)
	u.outBkt = append(u.outBkt, o.Cfg.coarsen(next))
}
