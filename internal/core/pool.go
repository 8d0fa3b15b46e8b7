package core

import (
	"sync"

	"graphit/internal/bucket"
	"graphit/internal/histogram"
)

// scratch is the per-run working state of the engine: frontier and update
// buffers, per-worker updaters and bins, the dense frontier map, and the
// constant-sum histogram. Runs return it to a pool so repeated runs (PPSP
// query batches, autotune trials) stop re-allocating O(V) state.
//
// Invariant: all state is clean at round barriers — every traversal clears
// its dense frontier map and empties its buffers before returning — so a
// scratch released after a completed or stopped run is safe to hand to the
// next run as-is. A run the run control aborted (cancelled or timed out,
// possibly mid-round) or a contained panic does not pool its scratch.
type scratch struct {
	bins     []*bucket.LocalBins
	ups      []*Updater
	inFron   []bool
	laneSt   []byte
	laneCasc []uint32
	lanePart []uint32
	frontier []uint32
	updated  []uint32
	hist     *histogram.Counter
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// getBins returns w reset thread-local bins.
func (sc *scratch) getBins(w int) []*bucket.LocalBins {
	for len(sc.bins) < w {
		sc.bins = append(sc.bins, &bucket.LocalBins{})
	}
	bins := sc.bins[:w]
	for _, b := range bins {
		b.Reset()
	}
	return bins
}

// getUpdaters returns w zeroed per-worker updaters bound to o, keeping each
// updater's output buffers' capacity.
func (sc *scratch) getUpdaters(o *Ordered, w int) []*Updater {
	for len(sc.ups) < w {
		sc.ups = append(sc.ups, &Updater{})
	}
	ups := sc.ups[:w]
	for _, u := range ups {
		out, outBkt := u.out[:0], u.outBkt[:0]
		*u = Updater{o: o, out: out, outBkt: outBkt}
	}
	return ups
}

// getLaneState returns the zeroed per-id queued-state plane of the lane
// kernel, sized to sz bytes. A clean run ends with every byte back at zero
// (all entries drained), but a cancelled, stopped or faulted run does not, so
// clearing on acquire keeps the invariant without trusting the previous run.
func (sc *scratch) getLaneState(sz int) []byte {
	if cap(sc.laneSt) < sz {
		sc.laneSt = make([]byte, sz)
		return sc.laneSt
	}
	st := sc.laneSt[:sz]
	for i := range st {
		st[i] = 0
	}
	return st
}

// getDense returns the clean dense frontier-membership map used by pull
// traversal.
func (sc *scratch) getDense(n int) []bool {
	if cap(sc.inFron) < n {
		sc.inFron = make([]bool, n)
	}
	sc.inFron = sc.inFron[:n]
	return sc.inFron
}

// getHist returns a zeroed histogram counter with w planes over at least n
// vertices. Like getLaneState it clears on acquire: every run leaves
// finalized marks behind, and an aborted one stale counts and touched lists.
func (sc *scratch) getHist(n, w int) *histogram.Counter {
	if sc.hist == nil || sc.hist.Len() < n || sc.hist.Workers() != w {
		sc.hist = histogram.New(n, w)
		return sc.hist
	}
	sc.hist.Reset()
	return sc.hist
}

// collect concatenates the per-worker update buffers into the run's reusable
// update buffer and empties them.
func (sc *scratch) collect(ups []*Updater) []uint32 {
	updated := sc.updated[:0]
	for _, u := range ups {
		updated = append(updated, u.out...)
		u.out = u.out[:0]
	}
	sc.updated = updated
	return updated
}
