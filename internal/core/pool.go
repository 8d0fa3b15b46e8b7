package core

import (
	"sync"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/histogram"
	"graphit/internal/parallel"
)

// scratch is the per-run working state of the engine: frontier and update
// buffers, per-worker updaters and bins, dedup flags, dense maps, and the
// constant-sum histogram. Runs return it to a pool so repeated runs (PPSP
// query batches, autotune trials) stop re-allocating O(V) state.
//
// Invariant: all state is clean at round barriers — every traversal clears
// its dedup flags and dense maps before returning, and the engine only
// stops between rounds — so a scratch released after a completed, stopped,
// or cancelled run is safe to hand to the next run as-is.
type scratch struct {
	bins     []*bucket.LocalBins
	ups      []*Updater
	dedup    *atomicutil.Flags
	inFron   []bool
	nextMap  []bool
	laneSt   []byte
	laneCasc []uint32
	lanePart []uint32
	frontier []uint32
	updated  []uint32
	pack     parallel.PackScratch
	hist     *histogram.Counter
	histN    int
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
// updater's output buffer capacity.
func (sc *scratch) getUpdaters(o *Ordered, w int) []*Updater {
	for len(sc.ups) < w {
		sc.ups = append(sc.ups, &Updater{})
	}
	ups := sc.ups[:w]
	for _, u := range ups {
		out := u.out[:0]
		*u = Updater{o: o, out: out}
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

// getDedup returns clean CAS dedup flags for n vertices.
func (sc *scratch) getDedup(n int) *atomicutil.Flags {
	if sc.dedup == nil || sc.dedup.Len() < n {
		sc.dedup = atomicutil.NewFlags(n)
	}
	return sc.dedup
}

// getDense returns the two clean dense maps (frontier membership, changed
// set) used by pull traversal.
func (sc *scratch) getDense(n int) (inFron, nextMap []bool) {
	if cap(sc.inFron) < n {
		sc.inFron = make([]bool, n)
		sc.nextMap = make([]bool, n)
	}
	sc.inFron = sc.inFron[:n]
	sc.nextMap = sc.nextMap[:n]
	return sc.inFron, sc.nextMap
}

// getHist returns a drained histogram counter sized for n vertices.
func (sc *scratch) getHist(n int) *histogram.Counter {
	if sc.hist == nil || sc.histN < n {
		sc.hist = histogram.New(n)
		sc.histN = n
	}
	return sc.hist
}
