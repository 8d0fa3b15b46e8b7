package bucket

import "math/bits"

// Lazy is a Julienne-style bucket structure. Only NumOpen buckets are
// materialized at a time; vertices whose bucket lies outside the current
// window are kept in a single overflow bucket and re-bucketed when the
// window advances (paper §5.1). All updates happen through UpdateBuckets,
// once per vertex per round (the "lazy bucket update" approach, Figure 5).
//
// Lazy is not safe for concurrent use; the lazy engine performs its parallel
// work in the edge-map phase and calls UpdateBuckets from a single
// goroutine, exactly as the generated code in paper Figure 9(a) does after
// its parallel_for. UpdateBuckets itself is a serial placement loop.
type Lazy struct {
	order   Order
	numOpen int
	bktOf   BktFunc

	open [][]uint32 // open[i] holds bucket id base ± i (sign per order)
	over []uint32   // overflow bucket: entries filed beyond the window
	inv  []uint32   // entries filed before the window cursor (inversions)
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

	// Slab free lists: backing arrays displaced by extraction, growth, and
	// window advances are parked here (len 0, capacity intact) and handed
	// back out instead of re-allocated, so the steady-state round loop
	// produces no bucket garbage. free[k] holds the slabs whose capacity
	// lies in [2^k, 2^(k+1)); nfree counts them all. lastRet is the
	// frontier most recently returned by Next; it is recycled at the start
	// of the following Next call (the returned slice stays valid until
	// then).
	free    [bits.UintSize][][]uint32
	nfree   int
	lastRet []uint32

	// Stats.
	Inserts    int64 // total bucket insertions (incl. overflow)
	Rebuckets  int64 // overflow re-distribution passes
	Inversions int64 // updates that landed before the current bucket
}

// maxFree bounds the slab free-list: enough for every window slot plus the
// overflow and a few frontiers in flight.
func (l *Lazy) maxFree() int { return l.numOpen + 8 }

// recycle parks a displaced backing array on its size class's free list.
func (l *Lazy) recycle(s []uint32) {
	if cap(s) == 0 || l.nfree >= l.maxFree() {
		return
	}
	k := bits.Len(uint(cap(s))) - 1
	l.free[k] = append(l.free[k], s[:0])
	l.nfree++
}

// grabFit pops a recycled slab from the smallest size class whose every
// slab holds need ids, or returns nil. appendSlab grows slabs by doubling
// from 8, so each class holds one capacity and this is best fit. Best fit
// matters for the steady state: a first-fit policy lets tiny window slots
// squat on the big overflow slabs, forcing the overflow to re-grow (and
// re-allocate) every cycle.
func (l *Lazy) grabFit(need int) []uint32 {
	for k := bits.Len(uint(need - 1)); k < len(l.free); k++ {
		if n := len(l.free[k]); n > 0 {
			s := l.free[k][n-1]
			l.free[k][n-1] = nil
			l.free[k] = l.free[k][:n-1]
			l.nfree--
			return s
		}
	}
	return nil
}

// appendSlab appends v to s, drawing backing storage from the free list and
// recycling the array displaced by growth.
func (l *Lazy) appendSlab(s []uint32, v uint32) []uint32 {
	if len(s) < cap(s) {
		return append(s, v)
	}
	g := l.grabFit(len(s) + 1)
	if g == nil {
		g = make([]uint32, 0, max(2*cap(s), 8))
	}
	g = append(g[:0], s...)
	l.recycle(s)
	return append(g, v)
}

// DefaultNumOpen is Julienne's default number of materialized buckets, the
// configNumBuckets default of paper Table 2.
const DefaultNumOpen = 128

// NewLazy creates a lazy bucket structure over vertices [0, n) with the
// given extraction order and number of materialized buckets. Every vertex
// whose bktOf is non-null is placed in a bucket. numOpen <= 0 selects
// DefaultNumOpen.
func NewLazy(n int, order Order, numOpen int, bktOf BktFunc) *Lazy {
	return newLazy(n, order, numOpen, bktOf, nil, n)
}

// NewLazyFrom is NewLazy restricted to an initial active set: the window
// base is computed over active instead of a full [0, n) scan, and only the
// active vertices are placed. bktOf is the unrestricted bucket function,
// consulted by all later updates and extractions.
func NewLazyFrom(n int, order Order, numOpen int, bktOf BktFunc, active []uint32) *Lazy {
	return newLazy(n, order, numOpen, bktOf, active, len(active))
}

// newLazy places the m initial vertices whose bucket is non-null — active[0:m],
// or [0, m) when active is nil — opening the window at the extreme bucket
// among them.
func newLazy(n int, order Order, numOpen int, bktOf BktFunc, active []uint32, m int) *Lazy {
	if numOpen <= 0 {
		numOpen = DefaultNumOpen
	}
	l := &Lazy{
		order:   order,
		numOpen: numOpen,
		bktOf:   bktOf,
		open:    make([][]uint32, numOpen),
		n:       n,
	}
	at := func(i int) uint32 {
		if active != nil {
			return active[i]
		}
		return uint32(i)
	}
	base := NullBkt
	for i := 0; i < m; i++ {
		b := bktOf(at(i))
		if b == NullBkt {
			continue
		}
		if base == NullBkt || l.before(b, base) {
			base = b
		}
	}
	l.base = base
	for i := 0; i < m; i++ {
		v := at(i)
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

// place inserts v into the bucket for id b (window, overflow, or the
// inversion list).
//
// Updates that land before the bucket currently being processed are
// priority inversions (only possible for workloads that violate the
// paper's monotonicity contract, e.g. an inconsistent A* heuristic). They
// are filed on their own list: the next window advance re-buckets them at
// their true priority, so they are processed (possibly out of order) rather
// than lost. Keeping them apart from the overflow lets that advance tell
// them from stale overflow copies (see advanceWindow).
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
	if l.before(b, l.currentID()) {
		if l.started {
			l.Inversions++
		}
		l.inv = l.appendSlab(l.inv, v)
		return
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
func (l *Lazy) UpdateBuckets(ids []uint32) {
	for _, v := range ids {
		if b := l.bktOf(v); b != NullBkt {
			l.place(v, b)
		}
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

// advanceWindow re-buckets the overflow and the inversions into a fresh
// window. It returns false when the structure is exhausted.
//
// Every overflow entry was filed beyond the window, so one whose vertex now
// maps before the window's end is a stale copy: the vertex was improved
// into the window and swept there (or, below the cursor, filed again as an
// inversion). Such copies are dropped; re-bucketing them would reopen the
// window behind the cursor and sweep the vertex again. Inversions keep
// their true bucket.
func (l *Lazy) advanceWindow() bool {
	if len(l.over)+len(l.inv) == 0 {
		return false
	}
	l.Rebuckets++
	// New base: the extreme live bucket id. Duplicate copies of a vertex
	// are dropped here — they all map to the same bucket now, so keeping
	// one is enough. (Self-filtered consumers keep duplicates; their
	// consume check drops the extras.)
	end := l.currentID()
	next := NullBkt
	if !l.selfFiltered {
		l.ensureEpoch()
	}
	l.curEpoch++
	// live compacts the overflow in place (it never passes the entry being
	// read) and then takes the inversions, growing through the free list.
	live := l.over[:0]
	for i, list := range [2][]uint32{l.over, l.inv} {
		for _, v := range list {
			b := l.bktOf(v)
			if b == NullBkt || (i == 0 && l.before(b, end)) {
				continue
			}
			if !l.selfFiltered {
				if l.epoch[v] == l.curEpoch {
					continue
				}
				l.epoch[v] = l.curEpoch
			}
			live = l.appendSlab(live, v)
			if next == NullBkt || l.before(b, next) {
				next = b
			}
		}
	}
	l.recycle(l.inv)
	over := live
	l.over, l.inv = nil, nil
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
