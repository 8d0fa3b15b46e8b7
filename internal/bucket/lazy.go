package bucket

import "graphit/internal/parallel"

// Lazy is a Julienne-style bucket structure. Only NumOpen buckets are
// materialized at a time; vertices whose bucket lies outside the current
// window are kept in a single overflow bucket and re-bucketed when the
// window advances (paper §5.1). All updates happen through UpdateBuckets,
// once per vertex per round (the "lazy bucket update" approach, Figure 5).
//
// Lazy is not safe for concurrent use; the lazy engine performs its parallel
// work in the edge-map phase and calls UpdateBuckets from a single
// goroutine, exactly as the generated code in paper Figure 9(a) does after
// its parallel_for. SetParallel lets UpdateBuckets itself fan out internally
// for large update sets, but the call remains single-goroutine at the seam.
type Lazy struct {
	order   Order
	numOpen int
	bktOf   BktFunc

	open [][]uint32 // open[i] holds bucket id base ± i (sign per order)
	over []uint32   // overflow bucket
	base int64      // bucket id of open[0]
	cur  int        // index into open of the next candidate bucket

	// started is set by the first Next call; before that, updates may
	// freely re-bucket vertices anywhere (initialization order).
	started bool

	// selfFiltered declares that the consumer drops stale and duplicate
	// extracted ids itself, so Next returns raw slabs and no epoch plane is
	// ever allocated (see SetSelfFiltered).
	selfFiltered bool

	// A vertex can accumulate one stale copy per re-bucketing; epoch-based
	// deduplication guarantees each vertex appears at most once per
	// extracted bucket and once per redistributed overflow, even when old
	// copies collapse into the same bucket after a window advance. The
	// plane is allocated on first use, so self-filtered consumers never pay
	// for it.
	n        int
	epoch    []uint64
	curEpoch uint64

	// Slab free-list: backing arrays displaced by extraction, growth, and
	// window advances are parked here (len 0, capacity intact) and handed
	// back out instead of re-allocated, so the steady-state round loop
	// produces no bucket garbage. lastRet is the frontier most recently
	// returned by Next; it is recycled at the start of the following Next
	// call (the returned slice stays valid until then).
	free    [][]uint32
	lastRet []uint32

	// Parallel UpdateBuckets state (see SetParallel). ex == nil means
	// always serial.
	ex        *parallel.Executor
	parCutoff int
	parSlots  []int32 // per-id destination (window slot, numOpen=overflow, -1=skip)
	parCounts []int64 // per-(dest, worker) counts, dest-major
	parBase   []int64 // per-dest scatter base offset
	parInv    []int64 // per-worker inversion counts

	// Stats.
	Inserts    int64 // total bucket insertions (incl. overflow)
	Rebuckets  int64 // overflow re-distribution passes
	Inversions int64 // updates that landed before the current bucket
}

// maxFree bounds the slab free-list: enough for every window slot plus the
// overflow and a few frontiers in flight.
func (l *Lazy) maxFree() int { return l.numOpen + 8 }

// recycle parks a displaced backing array on the free list.
func (l *Lazy) recycle(s []uint32) {
	if cap(s) == 0 || len(l.free) >= l.maxFree() {
		return
	}
	l.free = append(l.free, s[:0])
}

// grabFit pops the smallest recycled slab with capacity >= need, or returns
// nil. Best-fit matters for the steady state: a first-fit policy lets tiny
// window slots squat on the big overflow slabs, forcing the overflow to
// re-grow (and re-allocate) every cycle.
func (l *Lazy) grabFit(need int) []uint32 {
	best := -1
	for i, s := range l.free {
		if cap(s) >= need && (best < 0 || cap(s) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	s := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return s
}

// appendSlab appends v to s, drawing backing storage from the free list and
// recycling arrays displaced by growth.
func (l *Lazy) appendSlab(s []uint32, v uint32) []uint32 {
	if len(s) == cap(s) {
		s = l.growSlab(s, 1)
		s[len(s)-1] = v
		return s
	}
	return append(s, v)
}

// growSlab extends s by cnt writable slots (contents unspecified), reusing
// free-list capacity and recycling the displaced array on reallocation.
func (l *Lazy) growSlab(s []uint32, cnt int) []uint32 {
	need := len(s) + cnt
	if cap(s) >= need {
		return s[:need]
	}
	if g := l.grabFit(need); g != nil {
		g = g[:need]
		copy(g, s)
		l.recycle(s)
		return g
	}
	newCap := need
	if c := 2 * cap(s); c > newCap {
		newCap = c
	}
	if newCap < 8 {
		newCap = 8
	}
	ns := make([]uint32, need, newCap)
	copy(ns, s)
	l.recycle(s)
	return ns
}

// NewLazy creates a lazy bucket structure over vertices [0, n) with the
// given extraction order and number of materialized buckets. Every vertex
// whose bktOf is non-null is placed in a bucket. numOpen <= 0 selects
// Julienne's default of 128 open buckets.
func NewLazy(n int, order Order, numOpen int, bktOf BktFunc) *Lazy {
	if numOpen <= 0 {
		numOpen = 128
	}
	l := &Lazy{
		order:   order,
		numOpen: numOpen,
		bktOf:   bktOf,
		open:    make([][]uint32, numOpen),
		n:       n,
	}
	// Find the initial window base: the extreme bucket value present.
	base := NullBkt
	for v := 0; v < n; v++ {
		b := bktOf(uint32(v))
		if b == NullBkt {
			continue
		}
		if base == NullBkt || l.before(b, base) {
			base = b
		}
	}
	l.base = base
	for v := 0; v < n; v++ {
		b := bktOf(uint32(v))
		if b == NullBkt {
			continue
		}
		l.place(uint32(v), b)
	}
	return l
}

// NewLazyFrom is NewLazy restricted to an initial active set: the window
// base is computed over active instead of a full [0, n) scan, and only the
// active vertices are placed. bktOf is the unrestricted bucket function,
// consulted by all later updates and extractions (so no SetBktFunc swap is
// needed when the initial frontier is a source subset).
func NewLazyFrom(n int, order Order, numOpen int, bktOf BktFunc, active []uint32) *Lazy {
	if numOpen <= 0 {
		numOpen = 128
	}
	l := &Lazy{
		order:   order,
		numOpen: numOpen,
		bktOf:   bktOf,
		open:    make([][]uint32, numOpen),
		n:       n,
	}
	base := NullBkt
	for _, v := range active {
		b := bktOf(v)
		if b == NullBkt {
			continue
		}
		if base == NullBkt || l.before(b, base) {
			base = b
		}
	}
	l.base = base
	for _, v := range active {
		if b := bktOf(v); b != NullBkt {
			l.place(v, b)
		}
	}
	return l
}

// before reports whether bucket a is processed strictly before bucket b.
func (l *Lazy) before(a, b int64) bool {
	if l.order == Increasing {
		return a < b
	}
	return a > b
}

// slot returns the window index of bucket b relative to base, or -1 if b is
// outside the window.
func (l *Lazy) slot(b int64) int {
	var d int64
	if l.order == Increasing {
		d = b - l.base
	} else {
		d = l.base - b
	}
	if d < 0 || d >= int64(l.numOpen) {
		return -1
	}
	return int(d)
}

// place inserts v into the bucket for id b (window or overflow).
//
// Updates that land before the bucket currently being processed are
// priority inversions (only possible for workloads that violate the
// paper's monotonicity contract, e.g. an inconsistent A* heuristic). They
// are routed to the overflow bucket: the next window advance re-buckets
// them at their true priority, so they are processed (possibly out of
// order) rather than lost.
func (l *Lazy) place(v uint32, b int64) {
	l.Inserts++
	if l.base == NullBkt {
		// Window was empty; open it at b.
		l.base, l.cur = b, 0
	}
	s := l.slot(b)
	if s >= 0 && (!l.started || s >= l.cur) {
		l.open[s] = l.appendSlab(l.open[s], v)
		return
	}
	if l.started && l.before(b, l.currentID()) {
		l.Inversions++
	}
	l.over = l.appendSlab(l.over, v)
}

// currentID returns the bucket id at the current window cursor.
func (l *Lazy) currentID() int64 {
	if l.order == Increasing {
		return l.base + int64(l.cur)
	}
	return l.base - int64(l.cur)
}

// SetBktFunc replaces the bucket function consulted by UpdateBuckets, Next,
// and window advances. Engines that restrict initial bucketing to a source
// set install the unrestricted function after construction.
func (l *Lazy) SetBktFunc(f BktFunc) { l.bktOf = f }

// Insert places v into the bucket for id b directly, bypassing the bulk
// UpdateBuckets seam. Single-goroutine engines that discover bucket moves
// during the sweep itself (the serial lane-batched fast path) insert at the
// point of the win instead of collecting a round's ids; duplicate and stale
// copies are tolerated and filtered on extraction, exactly as with
// UpdateBuckets. Not safe for concurrent use, like every Lazy method.
func (l *Lazy) Insert(v uint32, b int64) { l.place(v, b) }

// SetSelfFiltered declares that the consumer recognizes and skips stale or
// duplicate extracted ids itself (e.g. with a one-byte per-id queued mark),
// so Next returns raw slabs without the extraction-time epoch filter and
// window advances keep duplicate copies. This sheds the epoch plane and one
// pass over every extracted slab; a Next call may then return a frontier
// with nothing live in it, which such consumers treat as an empty round.
func (l *Lazy) SetSelfFiltered() { l.selfFiltered = true }

// ensureEpoch allocates the deduplication plane on first filtered use.
func (l *Lazy) ensureEpoch() {
	if l.epoch == nil {
		l.epoch = make([]uint64, l.n)
	}
}

// SetParallel lets UpdateBuckets fan out internally on ex for update sets of
// at least cutoff ids (cutoff <= 0 selects a default). The call itself must
// still come from a single goroutine, and bktOf must be safe for concurrent
// read-only calls (the engine's priority maps qualify: they are read with
// atomic loads). The parallel path places every id at exactly the position
// the serial loop would, so results and stats are bit-identical across
// worker counts.
func (l *Lazy) SetParallel(ex *parallel.Executor, cutoff int) {
	if cutoff <= 0 {
		cutoff = 8192
	}
	l.ex, l.parCutoff = ex, cutoff
}

// DedupeIDs compacts ids in place, keeping the first occurrence of each
// vertex, and returns the compacted slice. It consumes one dedup epoch;
// Next and window advances take fresh epochs, so interleaving is safe.
func (l *Lazy) DedupeIDs(ids []uint32) []uint32 {
	l.ensureEpoch()
	l.curEpoch++
	out := ids[:0]
	for _, v := range ids {
		if l.epoch[v] != l.curEpoch {
			l.epoch[v] = l.curEpoch
			out = append(out, v)
		}
	}
	return out
}

// UpdateBuckets re-buckets each vertex in ids according to bktOf. Callers
// must have deduplicated ids (at most one occurrence per vertex); stale
// copies from earlier rounds are tolerated and filtered on extraction.
//
// With SetParallel configured and a large enough update set, the placement
// runs as a two-pass counting sort over (window slot | overflow): a parallel
// classify pass counts per-(destination, worker) occupancy, a prefix sum
// turns the counts into scatter offsets, and a parallel scatter writes each
// id into pre-grown buckets. Workers own contiguous ascending id ranges
// (ForStatic), so the per-destination concatenation preserves the exact
// serial insertion order.
func (l *Lazy) UpdateBuckets(ids []uint32) {
	if l.ex == nil || l.ex.Workers() <= 1 || len(ids) < l.parCutoff || l.base == NullBkt {
		for _, v := range ids {
			if b := l.bktOf(v); b != NullBkt {
				l.place(v, b)
			}
		}
		return
	}
	l.updateBucketsParallel(ids)
}

// updateBucketsParallel is the fan-out path of UpdateBuckets. It requires an
// open window (l.base != NullBkt): the serial loop's open-window-on-first-
// placement transition is inherently sequential, so UpdateBuckets falls back
// to it when the window is closed.
func (l *Lazy) updateBucketsParallel(ids []uint32) {
	n := len(ids)
	w := l.ex.Workers()
	numDest := l.numOpen + 1 // window slots, then overflow
	if cap(l.parSlots) < n {
		l.parSlots = make([]int32, n)
	}
	slots := l.parSlots[:n]
	if cap(l.parCounts) < numDest*w {
		l.parCounts = make([]int64, numDest*w)
	}
	counts := l.parCounts[:numDest*w]
	for i := range counts {
		counts[i] = 0
	}
	if cap(l.parInv) < w {
		l.parInv = make([]int64, w)
	}
	inv := l.parInv[:w]
	for i := range inv {
		inv[i] = 0
	}
	curID := l.currentID()

	// Pass 1: classify every id to its destination and count per-(dest,
	// worker) occupancy. counts is dest-major so the prefix sum below walks
	// destinations in placement order.
	l.ex.ForStatic(n, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			v := ids[i]
			b := l.bktOf(v)
			if b == NullBkt {
				slots[i] = -1
				continue
			}
			d := l.numOpen
			if s := l.slot(b); s >= 0 && (!l.started || s >= l.cur) {
				d = s
			} else if l.started && l.before(b, curID) {
				inv[worker]++
			}
			slots[i] = int32(d)
			counts[d*w+worker]++
		}
	})

	// Exclusive scan: counts[d*w+worker] becomes that cell's start offset in
	// the global placement order (ascending dest, then worker).
	total := l.ex.PrefixSum(counts)
	if total == 0 {
		return
	}

	// Pre-grow each destination and record where its region starts.
	if cap(l.parBase) < numDest {
		l.parBase = make([]int64, numDest)
	}
	base := l.parBase[:numDest]
	for d := 0; d < numDest; d++ {
		dStart := counts[d*w]
		dEnd := total
		if d+1 < numDest {
			dEnd = counts[(d+1)*w]
		}
		cnt := int(dEnd - dStart)
		if cnt == 0 {
			continue
		}
		if d == l.numOpen {
			base[d] = int64(len(l.over)) - dStart
			l.over = l.growSlab(l.over, cnt)
		} else {
			base[d] = int64(len(l.open[d])) - dStart
			l.open[d] = l.growSlab(l.open[d], cnt)
		}
	}

	// Pass 2: scatter. Each (dest, worker) cell is advanced only by its
	// owning worker, and slab regions are disjoint, so no synchronization is
	// needed. Within a destination, worker slabs concatenate in ascending id
	// order — the serial order.
	l.ex.ForStatic(n, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			d := slots[i]
			if d < 0 {
				continue
			}
			cell := int(d)*w + worker
			pos := base[d] + counts[cell]
			counts[cell]++
			if int(d) == l.numOpen {
				l.over[pos] = ids[i]
			} else {
				l.open[d][pos] = ids[i]
			}
		}
	})

	l.Inserts += total
	for _, x := range inv {
		l.Inversions += x
	}
}

// Next extracts the next non-empty bucket in priority order, filtering stale
// entries (vertices whose current bucket no longer matches). It returns the
// bucket id and its vertices, or (NullBkt, nil) when no buckets remain. The
// returned slice is valid until the next Next call, which recycles its
// backing array into the slab free-list; callers that need the frontier
// longer must copy it.
func (l *Lazy) Next() (int64, []uint32) {
	l.started = true
	if l.lastRet != nil {
		l.recycle(l.lastRet)
		l.lastRet = nil
	}
	for {
		for ; l.cur < l.numOpen; l.cur++ {
			bid := l.currentID()
			bkt := l.open[l.cur]
			if len(bkt) == 0 {
				continue
			}
			l.open[l.cur] = nil
			if l.selfFiltered {
				l.lastRet = bkt
				return bid, bkt
			}
			// Filter stale entries and duplicate copies in place.
			l.ensureEpoch()
			l.curEpoch++
			live := bkt[:0]
			for _, v := range bkt {
				if l.bktOf(v) == bid && l.epoch[v] != l.curEpoch {
					l.epoch[v] = l.curEpoch
					live = append(live, v)
				}
			}
			if len(live) > 0 {
				l.lastRet = live
				return bid, live
			}
			// Every entry was stale; the slab is free immediately.
			l.recycle(live)
		}
		if !l.advanceWindow() {
			return NullBkt, nil
		}
	}
}

// advanceWindow re-buckets the overflow into a fresh window. It returns
// false when the structure is exhausted.
func (l *Lazy) advanceWindow() bool {
	if len(l.over) == 0 {
		return false
	}
	l.Rebuckets++
	// New base: the extreme live bucket id in the overflow. Duplicate
	// copies of a vertex are dropped here — they all map to the same
	// bucket now, so keeping one is enough. (Self-filtered consumers keep
	// duplicates; their consume check drops the extras.)
	next := NullBkt
	if !l.selfFiltered {
		l.ensureEpoch()
	}
	l.curEpoch++
	live := l.over[:0]
	for _, v := range l.over {
		b := l.bktOf(v)
		if b == NullBkt {
			continue
		}
		if !l.selfFiltered {
			if l.epoch[v] == l.curEpoch {
				continue
			}
			l.epoch[v] = l.curEpoch
		}
		live = append(live, v)
		if next == NullBkt || l.before(b, next) {
			next = b
		}
	}
	over := live
	l.over = nil
	if next == NullBkt {
		l.recycle(over)
		return false
	}
	l.base, l.cur = next, 0
	for _, v := range over {
		b := l.bktOf(v)
		if s := l.slot(b); s >= 0 {
			l.open[s] = l.appendSlab(l.open[s], v)
		} else {
			l.over = l.appendSlab(l.over, v)
		}
	}
	// The redistributed overflow's old backing array is free once every
	// vertex has been copied out.
	l.recycle(over)
	return true
}
