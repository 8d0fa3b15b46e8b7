package bucket

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLazyPopsAreMonotone: with static priorities, Next returns buckets in
// strictly processing order and every vertex exactly once.
func TestLazyPopsAreMonotone(t *testing.T) {
	for _, order := range []Order{Increasing, Decreasing} {
		for _, numOpen := range []int{1, 4, 128} {
			prio := []int64{5, 3, 3, 9, 0, 7, NullBkt, 5}
			bktOf := func(v uint32) int64 { return prio[v] }
			l := NewLazy(len(prio), order, numOpen, bktOf)
			seen := map[uint32]bool{}
			last := int64(-1 << 62)
			if order == Decreasing {
				last = 1 << 62
			}
			for {
				bid, verts := l.Next()
				if bid == NullBkt {
					break
				}
				if order == Increasing && bid <= last {
					t.Fatalf("order=%v numOpen=%d: non-monotone pop %d after %d", order, numOpen, bid, last)
				}
				if order == Decreasing && bid >= last {
					t.Fatalf("order=%v numOpen=%d: non-monotone pop %d after %d", order, numOpen, bid, last)
				}
				last = bid
				for _, v := range verts {
					if seen[v] {
						t.Fatalf("vertex %d popped twice", v)
					}
					if prio[v] != bid {
						t.Fatalf("vertex %d popped in bucket %d with priority %d", v, bid, prio[v])
					}
					seen[v] = true
				}
			}
			if len(seen) != 7 { // vertex 6 has null priority
				t.Fatalf("popped %d vertices, want 7", len(seen))
			}
		}
	}
}

// TestLazyDynamicDecrease simulates a k-core-like workload: priorities only
// decrease, each change is reported via UpdateBuckets. Every vertex must be
// extracted exactly once at its final (current-at-pop) priority, regardless
// of window size.
func TestLazyDynamicDecrease(t *testing.T) {
	for _, numOpen := range []int{2, 8, 128} {
		rng := rand.New(rand.NewSource(7))
		n := 200
		prio := make([]int64, n)
		for v := range prio {
			prio[v] = int64(rng.Intn(50))
		}
		finalized := make([]bool, n)
		bktOf := func(v uint32) int64 {
			if finalized[v] {
				return NullBkt
			}
			return prio[v]
		}
		l := NewLazy(n, Increasing, numOpen, bktOf)
		popped := 0
		for {
			bid, verts := l.Next()
			if bid == NullBkt {
				break
			}
			var updated []uint32
			for _, v := range verts {
				finalized[v] = true
				popped++
			}
			// Randomly decrease some higher-priority vertices, clamped at
			// the current bucket (k-core's min_threshold).
			for i := 0; i < 20; i++ {
				u := uint32(rng.Intn(n))
				if !finalized[u] && prio[u] > bid {
					prio[u]--
					if prio[u] < bid {
						prio[u] = bid
					}
					updated = append(updated, u)
				}
			}
			l.UpdateBuckets(updated)
		}
		if popped != n {
			t.Fatalf("numOpen=%d: popped %d vertices, want %d", numOpen, popped, n)
		}
	}
}

// TestLazyNoDuplicateWithinPop: stale copies collapsing into one bucket
// after window advances must be deduplicated (the k-core bug fixed during
// development).
func TestLazyNoDuplicateWithinPop(t *testing.T) {
	prio := []int64{100}
	bktOf := func(v uint32) int64 { return prio[0] }
	l := NewLazy(1, Increasing, 2, bktOf)
	// Re-bucket the same vertex several times while it sits in overflow.
	for i := 0; i < 5; i++ {
		prio[0] = 100 - int64(i)
		l.UpdateBuckets([]uint32{0})
	}
	bid, verts := l.Next()
	if bid != 96 {
		t.Fatalf("popped bucket %d, want 96", bid)
	}
	if len(verts) != 1 {
		t.Fatalf("vertex popped %d times in one bucket", len(verts))
	}
}

// TestLazyInversionClamp: an update to a bucket before the current one is
// clamped into the current bucket and counted.
func TestLazyInversionClamp(t *testing.T) {
	prio := []int64{1, 5}
	bktOf := func(v uint32) int64 { return prio[v] }
	l := NewLazy(2, Increasing, 128, bktOf)
	bid, _ := l.Next()
	if bid != 1 {
		t.Fatalf("first bucket %d", bid)
	}
	// While processing bucket 1, vertex 1 inverts to priority 0.
	prio[1] = 0
	l.UpdateBuckets([]uint32{1})
	if l.Inversions != 1 {
		t.Fatalf("Inversions = %d, want 1", l.Inversions)
	}
	// The inverted vertex must not be lost: the overflow re-advance
	// recovers it at its true priority (out of order, but processed).
	bid2, verts := l.Next()
	if bid2 != 0 || len(verts) != 1 || verts[0] != 1 {
		t.Fatalf("inverted pop = (%d, %v), want (0, [1])", bid2, verts)
	}
}

// TestLazyAdvanceDropsStaleOverflow: a vertex filed in the overflow and
// later improved into the window is swept there, so the next window advance
// must drop its overflow copy instead of reopening the window behind the
// cursor and sweeping it again — while a real inversion filed in the same
// window is still recovered at its true priority.
func TestLazyAdvanceDropsStaleOverflow(t *testing.T) {
	prio := []int64{0, 10, 20, 30}
	bktOf := func(v uint32) int64 { return prio[v] }
	l := NewLazy(len(prio), Increasing, 4, bktOf) // window [0, 4)
	want := []struct {
		bid   int64
		verts []uint32
	}{{0, []uint32{0}}, {2, []uint32{1}}, {1, []uint32{3}}, {20, []uint32{2}}}
	for i, w := range want {
		bid, verts := l.Next()
		if bid != w.bid || len(verts) != len(w.verts) || verts[0] != w.verts[0] {
			t.Fatalf("pop %d = (%d, %v), want (%d, %v)", i, bid, verts, w.bid, w.verts)
		}
		switch i {
		case 0: // vertex 1 improves from the overflow into the window
			prio[1] = 2
			l.UpdateBuckets([]uint32{1})
		case 1: // vertex 3 inverts to a bucket the cursor has passed
			prio[3] = 1
			l.UpdateBuckets([]uint32{3})
		}
	}
	if bid, verts := l.Next(); bid != NullBkt {
		t.Fatalf("extra pop (%d, %v)", bid, verts)
	}
	if l.Inversions != 1 {
		t.Fatalf("Inversions = %d, want 1", l.Inversions)
	}
}

// TestLazyPropertyRandomWorkload: quick-checked version of the dynamic
// decrease test with random window sizes.
func TestLazyPropertyRandomWorkload(t *testing.T) {
	f := func(seed int64, windowSel uint8) bool {
		numOpen := []int{1, 3, 16, 200}[int(windowSel)%4]
		rng := rand.New(rand.NewSource(seed))
		n := 60
		prio := make([]int64, n)
		for v := range prio {
			prio[v] = int64(rng.Intn(30))
		}
		final := make([]bool, n)
		bktOf := func(v uint32) int64 {
			if final[v] {
				return NullBkt
			}
			return prio[v]
		}
		l := NewLazy(n, Increasing, numOpen, bktOf)
		popped := 0
		last := int64(-1)
		for {
			bid, verts := l.Next()
			if bid == NullBkt {
				break
			}
			if bid < last {
				return false
			}
			last = bid
			var updated []uint32
			for _, v := range verts {
				if final[v] || prio[v] != bid {
					return false
				}
				final[v] = true
				popped++
			}
			for i := 0; i < 10; i++ {
				u := uint32(rng.Intn(n))
				if !final[u] && prio[u] > bid {
					prio[u] = bid + int64(rng.Intn(int(prio[u]-bid)+1))
					updated = append(updated, u)
				}
			}
			l.UpdateBuckets(updated)
		}
		return popped == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLocalBinsInsertTakeMin(t *testing.T) {
	lb := &LocalBins{}
	lb.Insert(5, 50)
	lb.Insert(2, 20)
	lb.Insert(5, 51)
	lb.Insert(-3, 7) // clamped to bin 0
	if got := lb.MinNonEmpty(0); got != 0 {
		t.Fatalf("MinNonEmpty(0) = %d", got)
	}
	if got := lb.MinNonEmpty(1); got != 2 {
		t.Fatalf("MinNonEmpty(1) = %d", got)
	}
	if vs := lb.Take(2); len(vs) != 1 || vs[0] != 20 {
		t.Fatalf("Take(2) = %v", vs)
	}
	if lb.Len(2) != 0 {
		t.Fatal("Take did not clear the bin")
	}
	if got := lb.MinNonEmpty(1); got != 5 {
		t.Fatalf("MinNonEmpty(1) after take = %d", got)
	}
	if vs := lb.Take(5); len(vs) != 2 {
		t.Fatalf("Take(5) = %v", vs)
	}
	if got := lb.MinNonEmpty(1); got != NullBkt {
		t.Fatalf("MinNonEmpty on empty = %d", got)
	}
	if lb.Inserts != 4 {
		t.Fatalf("Inserts = %d", lb.Inserts)
	}
	lb.Reset()
	if lb.Inserts != 0 || lb.MinNonEmpty(0) != NullBkt {
		t.Fatal("Reset incomplete")
	}
}

func TestLocalBinsTakeOutOfRange(t *testing.T) {
	lb := &LocalBins{}
	if vs := lb.Take(10); vs != nil {
		t.Fatal("Take on empty bins should be nil")
	}
	if lb.Len(99) != 0 {
		t.Fatal("Len out of range should be 0")
	}
}

func TestLazyEmptyQueue(t *testing.T) {
	// Vertex 2 has no bucket until its priority is set after the start.
	prio := NullBkt
	l := NewLazy(5, Increasing, 4, func(v uint32) int64 {
		if v == 2 {
			return prio
		}
		return NullBkt
	})
	if bid, _ := l.Next(); bid != NullBkt {
		t.Fatal("empty queue should be finished")
	}
	// Late insertion after an empty start must still work.
	prio = 3
	l.UpdateBuckets([]uint32{2})
	bid, verts := l.Next()
	if bid != 3 || len(verts) != 1 || verts[0] != 2 {
		t.Fatalf("late insert pop = (%d, %v)", bid, verts)
	}
}

// TestLazyFromActiveSubset: NewLazyFrom seeds the queue from an explicit
// active set — vertices outside it are never placed, even when bktOf gives
// them a live bucket, and the base window starts at the subset's minimum.
func TestLazyFromActiveSubset(t *testing.T) {
	prio := []int64{5, 3, 8, 9, 0, 7, 2, 5}
	bktOf := func(v uint32) int64 { return prio[v] }
	l := NewLazyFrom(len(prio), Increasing, 4, bktOf, []uint32{1, 2, 5})
	var popped []uint32
	last := int64(-1 << 62)
	for {
		bid, verts := l.Next()
		if bid == NullBkt {
			break
		}
		if bid <= last {
			t.Fatalf("non-monotone pop %d after %d", bid, last)
		}
		last = bid
		for _, v := range verts {
			if prio[v] != bid {
				t.Fatalf("vertex %d popped in bucket %d, priority %d", v, bid, prio[v])
			}
			popped = append(popped, v)
		}
	}
	if len(popped) != 3 {
		t.Fatalf("popped %v, want exactly the active set {1, 2, 5}", popped)
	}
	seen := map[uint32]bool{}
	for _, v := range popped {
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[5] {
		t.Fatalf("popped %v, want {1, 2, 5}", popped)
	}

	// An all-null active set behaves like an empty queue.
	empty := NewLazyFrom(4, Increasing, 4, func(uint32) int64 { return NullBkt }, []uint32{0, 3})
	if bid, _ := empty.Next(); bid != NullBkt {
		t.Fatal("null-priority active set should be finished immediately")
	}
}

// TestLazyFromMatchesNewLazy: with the full vertex range as the active set,
// NewLazyFrom pops exactly what NewLazy pops.
func TestLazyFromMatchesNewLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 64
	prio := make([]int64, n)
	all := make([]uint32, n)
	for i := range prio {
		prio[i] = int64(rng.Intn(40))
		all[i] = uint32(i)
	}
	bktOf := func(v uint32) int64 { return prio[v] }
	a := NewLazy(n, Increasing, 8, bktOf)
	b := NewLazyFrom(n, Increasing, 8, bktOf, all)
	for {
		bidA, vertsA := a.Next()
		bidB, vertsB := b.Next()
		if bidA != bidB || len(vertsA) != len(vertsB) {
			t.Fatalf("divergence: (%d, %d verts) vs (%d, %d verts)", bidA, len(vertsA), bidB, len(vertsB))
		}
		if bidA == NullBkt {
			return
		}
	}
}

// TestLazyPropertyDecreasingWorkload is the SetCover-shaped mirror of the
// increasing property test: max-order extraction with priorities that only
// decrease (re-bucketed after each pop), every set leaving the queue
// exactly once per its final state.
func TestLazyPropertyDecreasingWorkload(t *testing.T) {
	f := func(seed int64, windowSel uint8) bool {
		numOpen := []int{1, 4, 32, 256}[int(windowSel)%4]
		rng := rand.New(rand.NewSource(seed))
		n := 50
		prio := make([]int64, n)
		for v := range prio {
			prio[v] = int64(1 + rng.Intn(40))
		}
		done := make([]bool, n)
		bktOf := func(v uint32) int64 {
			if done[v] || prio[v] <= 0 {
				return NullBkt
			}
			return prio[v]
		}
		l := NewLazy(n, Decreasing, numOpen, bktOf)
		last := int64(1 << 62)
		processed := 0
		for {
			bid, verts := l.Next()
			if bid == NullBkt {
				break
			}
			if bid > last {
				return false // max-order violated
			}
			last = bid
			var updated []uint32
			for _, v := range verts {
				if done[v] || prio[v] != bid {
					return false
				}
				// A set either commits (leaves) or drops to a lower value.
				if rng.Intn(2) == 0 {
					done[v] = true
					processed++
				} else {
					prio[v] = int64(rng.Intn(int(bid)))
					if prio[v] > 0 {
						updated = append(updated, v)
					} else {
						done[v] = true
						processed++
					}
				}
			}
			l.UpdateBuckets(updated)
		}
		return processed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
