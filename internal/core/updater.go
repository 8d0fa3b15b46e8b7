package core

import (
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/graph"
)

// Updater is the runtime face of the DSL's priority-update operators
// (paper Table 1): updatePriorityMin, updatePriorityMax, updatePrioritySum.
// One Updater is owned by each worker; the engine wires it to the schedule's
// bucket sink (thread-local bins for eager, an output buffer for lazy) and
// decides whether updates must be atomic (SparsePush) or not (DensePull,
// where each destination is owned by one worker — paper Figure 9(b)).
type Updater struct {
	o       *Ordered
	atomics bool
	curBin  int64 // bucket being processed; floor for eager inserts
	curPrio int64 // priority of the current bucket (curBin * ∆)

	// Eager sink: the owning worker's local bins.
	bins *bucket.LocalBins
	// Lazy sink: the per-worker output buffer (see record).
	out []uint32
	// outBkt[i] is out[i]'s new bucket, noted by the constant-sum drain,
	// and by record itself when noteBkt is set (approximate ordering, which
	// lists every win).
	outBkt  []int64
	noteBkt bool

	// Per-worker counters, folded into Stats after each parallel phase.
	relaxations int64
	inversions  int64
	processed   int64
	fused       int64

	_ [64]byte // keeps two workers' updaters off one cache line
}

// GetCurrentPriority returns the priority of the bucket being processed —
// the DSL's pq.getCurrentPriority() (e.g. the current core k in k-core).
func (u *Updater) GetCurrentPriority() int64 { return u.curPrio }

// FinishedVertex reports whether v has been finalized — the DSL's
// pq.finishedVertex(v).
func (u *Updater) FinishedVertex(v graph.VertexID) bool {
	return u.o.fin != nil && u.o.fin.IsSet(v)
}

// Priority returns v's current priority with an atomic read; user-defined
// functions must use it instead of reading the priority vector directly in
// parallel contexts.
func (u *Updater) Priority(v graph.VertexID) int64 {
	return atomicutil.Load(&u.o.Prio[v])
}

// record routes a successful priority change of v (new coarsened value p)
// into the schedule's bucket sink.
func (u *Updater) record(v graph.VertexID, newPrio int64) {
	o := u.o
	switch {
	case u.noteBkt: // approximate ordering
		u.out = append(u.out, v)
		u.outBkt = append(u.outBkt, o.bucketOf(newPrio))
	case u.bins != nil: // eager
		b := o.bucketOf(newPrio)
		if b < u.curBin {
			b = u.curBin
			u.inversions++
		}
		u.bins.Insert(b, v)
	default: // lazy
		// A pull worker handles all of v's in-edges in a row, so a repeat
		// win for v follows its first and checking the last entry lists v
		// once. A push buffer may still list v more than once; the lazy
		// source drops the repeats at the bucket seam.
		if n := len(u.out); n == 0 || u.out[n-1] != v {
			u.out = append(u.out, v)
		}
	}
}

// SetPriority sets v's priority to p and, unless p is null, lists v for the
// round's bucket update even if its bucket is unchanged: how a vertex pass
// (Ordered.Passes) re-files a vertex it dequeued.
func (u *Updater) SetPriority(v graph.VertexID, p int64) {
	atomicutil.Store(&u.o.Prio[v], p)
	if p != u.o.nullPrio() {
		u.record(v, p)
	}
}

// UpdatePriorityMin lowers v's priority to newPrio if it improves it, and
// reports whether the update won. Only valid on lower_first queues.
func (u *Updater) UpdatePriorityMin(v graph.VertexID, newPrio int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var won bool
	if u.atomics {
		won = atomicutil.WriteMin(&o.Prio[v], newPrio)
	} else if newPrio < atomicutil.Load(&o.Prio[v]) {
		// Pull direction: v is owned by this worker, so no CAS retry loop
		// is needed — but other workers may concurrently read v as a
		// source, so the write itself must still be atomic.
		atomicutil.Store(&o.Prio[v], newPrio)
		won = true
	}
	if won {
		u.record(v, newPrio)
	}
	return won
}

// UpdatePriorityMax raises v's priority to newPrio if it improves it, and
// reports whether the update won. Only valid on higher_first queues.
func (u *Updater) UpdatePriorityMax(v graph.VertexID, newPrio int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var won bool
	if u.atomics {
		won = atomicutil.WriteMax(&o.Prio[v], newPrio)
	} else if newPrio > atomicutil.Load(&o.Prio[v]) {
		atomicutil.Store(&o.Prio[v], newPrio)
		won = true
	}
	if won {
		u.record(v, newPrio)
	}
	return won
}

// UpdatePrioritySum adds delta to v's priority, clamped so it never crosses
// floor, and reports whether the priority changed (paper Table 1's
// updatePrioritySum with min_threshold).
func (u *Updater) UpdatePrioritySum(v graph.VertexID, delta, floor int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var changed bool
	if u.atomics {
		_, changed = atomicutil.AddClamped(&o.Prio[v], delta, floor)
	} else {
		old := atomicutil.Load(&o.Prio[v])
		next := old + delta
		if next < floor {
			next = floor
		}
		if next != old {
			atomicutil.Store(&o.Prio[v], next)
			changed = true
		}
	}
	if changed {
		u.record(v, atomicutil.Load(&o.Prio[v]))
	}
	return changed
}
