package core

import (
	"fmt"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// Manual is the step-wise execution mode behind the public PriorityQueue
// API: the user drives the while loop themselves (paper Figure 3, lines
// 17–21), dequeuing ready sets and applying edge functions one round at a
// time. Manual mode always uses lazy bucketing — the eager transformation
// is only legal when the compiler (or RunOrdered) owns the whole loop and
// can verify the bucket has no other uses (paper §5.2). It composes the
// same lazySource/traversal pair as RunContext, minus the round loop.
type Manual struct {
	o    *Ordered
	src  *lazySource
	trav traversal
	ups  []*Updater
	ex   *parallel.Executor

	curBkt   int64
	frontier []uint32
	popped   bool
	closed   bool
	err      error // poisoned by a contained panic; all later rounds refuse
	st       Stats
}

// NewManual validates the operator and prepares step-wise execution.
func NewManual(o *Ordered) (*Manual, error) {
	o.Cfg.normalize()
	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion:
		return nil, fmt.Errorf("core: manual (user-driven) loops require a lazy schedule; " +
			"the eager transformation applies only when the runtime owns the loop")
	}
	if o.Cfg.Direction == Hybrid {
		return nil, fmt.Errorf("core: manual loops use a fixed direction; choose SparsePush or DensePull")
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.FinalizeOnPop {
		o.fin = atomicutil.NewFlags(o.G.NumVertices())
	}
	active, err := o.initialActive()
	if err != nil {
		return nil, err
	}
	// Manual mode is long-lived (the user holds it across rounds), so its
	// scratch is private, never pooled. Its executor is acquired for the
	// whole loop and returned by Close (or by the executor's finalizer if
	// the Manual is simply dropped), and its fixed count sizes the
	// per-worker updaters — the same race fix RunContext gets. Manual
	// rounds have no watchdog or injection hook (faults reach them through
	// the user's EdgeFunc directly), so the control block is inert.
	ex := parallel.Acquire(o.Cfg.Workers)
	trav, ups, _ := o.compose(&scratch{}, ex, &runCtl{}, false)
	return &Manual{o: o, src: o.newLazySource(ex, active), trav: trav, ups: ups, ex: ex}, nil
}

// Close releases the loop's executor back to the pool. The Manual remains
// queryable (Stats, Finished) but must not apply further rounds. Close is
// optional — an unclosed Manual's workers are reclaimed when it becomes
// unreachable — and idempotent.
func (m *Manual) Close() {
	if m.closed {
		return
	}
	m.closed = true
	parallel.Release(m.ex)
}

// ensurePopped extracts the next ready set if none is pending.
func (m *Manual) ensurePopped() {
	if m.popped {
		return
	}
	m.curBkt, m.frontier = m.src.next()
	m.popped = true
}

// Finished reports whether any bucket remains (pq.finished()).
func (m *Manual) Finished() bool {
	m.ensurePopped()
	return m.curBkt == bucket.NullBkt
}

// GetCurrentPriority returns the priority of the ready bucket
// (pq.getCurrentPriority()).
func (m *Manual) GetCurrentPriority() int64 {
	m.ensurePopped()
	return m.curBkt * m.o.Cfg.Delta
}

// FinishedVertex reports whether v has been finalized.
func (m *Manual) FinishedVertex(v uint32) bool {
	return m.o.fin != nil && m.o.fin.IsSet(v)
}

// DequeueReadySet returns the vertices ready to be processed
// (pq.dequeueReadySet()). It returns nil when the queue is finished. The
// returned slice is owned by the caller until the next ApplyUpdatePriority.
func (m *Manual) DequeueReadySet() []uint32 {
	m.ensurePopped()
	if m.curBkt == bucket.NullBkt {
		return nil
	}
	if m.o.fin != nil {
		for _, v := range m.frontier {
			m.o.fin.TrySet(v)
		}
	}
	return m.frontier
}

// ApplyUpdatePriority applies f to every out-edge of frontier under the
// queue's lazy schedule and bulk-updates the buckets — one round of
// `edges.from(bucket).applyUpdatePriority(f)`.
//
// A panic in f is contained: all workers join, the error returns as a
// *PanicError with the partial counters folded into Stats, and the Manual
// is poisoned — its bucket state may be inconsistent with the priority
// vector, so every later ApplyUpdatePriority refuses with the same error
// (queries like Stats and FinishedVertex remain valid).
func (m *Manual) ApplyUpdatePriority(frontier []uint32, f EdgeFunc) (err error) {
	if m.err != nil {
		return m.err
	}
	o := m.o
	if f == nil {
		f = o.Apply
	}
	o.Apply = f
	m.st.Rounds++
	curPrio := m.curBkt * o.Cfg.Delta
	fold := func() {
		for _, u := range m.ups {
			m.st.Relaxations += u.relaxations
			m.st.Inversions += u.inversions
			m.st.Processed += u.processed
			u.relaxations, u.inversions, u.processed, u.fused = 0, 0, 0, 0
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fold()
			pe := asPanicError(PhaseRelax, m.st.Rounds, r)
			m.err = pe
			err = pe
		}
	}()
	for _, u := range m.ups {
		u.curBin, u.curPrio = m.curBkt, curPrio
	}
	updated, pull, _ := m.trav.relax(m.curBkt, curPrio, frontier)
	fold()
	if pull {
		m.st.PullRounds++
	}
	m.st.GlobalSyncs++
	m.src.update(updated)
	m.popped = false
	m.frontier = nil
	return nil
}

// Err returns the fault that poisoned the Manual, if any.
func (m *Manual) Err() error { return m.err }

// Stats returns counters accumulated so far.
func (m *Manual) Stats() Stats {
	st := m.st
	m.src.finish(&st)
	return st
}
