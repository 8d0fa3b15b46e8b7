package bucket

import "testing"

// TestLazySteadyStateAllocs: once the slab free-list is warm, a full
// update → extract cycle (including window advances through the overflow
// bucket) performs zero heap allocation.
func TestLazySteadyStateAllocs(t *testing.T) {
	const n = 256
	prio := make([]int64, n)
	l := NewLazy(n, Increasing, 8, func(v uint32) int64 { return prio[v] })
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	step := func(base int64) {
		// 32 distinct buckets against an 8-wide window forces overflow
		// traffic and window advances every cycle.
		for i := range prio {
			prio[i] = base + int64(i%32)
		}
		l.UpdateBuckets(ids)
		for {
			if bid, _ := l.Next(); bid == NullBkt {
				break
			}
		}
	}
	for r := 0; r < 8; r++ {
		step(int64(r * 40))
	}
	if allocs := testing.AllocsPerRun(50, func() { step(1000) }); allocs != 0 {
		t.Errorf("steady-state update/extract cycle allocates %.0f times per run, want 0", allocs)
	}
}

// TestNextFrontierValidUntilNextNext: the slice returned by Next must stay
// intact across UpdateBuckets calls (which grab recycled slabs) and only be
// invalidated by the following Next.
func TestNextFrontierValidUntilNextNext(t *testing.T) {
	const n = 64
	prio := make([]int64, n)
	for i := range prio {
		prio[i] = int64(i % 4)
	}
	l := NewLazy(n, Increasing, 4, func(v uint32) int64 { return prio[v] })
	bid, verts := l.Next()
	if bid == NullBkt {
		t.Fatal("expected a first bucket")
	}
	want := append([]uint32(nil), verts...)
	// Re-bucket a disjoint set of vertices; slab recycling must not hand the
	// held frontier's backing array to these inserts.
	var moved []uint32
	for v := 0; v < n; v++ {
		if prio[v] == 3 {
			prio[v] = 2
			moved = append(moved, uint32(v))
		}
	}
	l.UpdateBuckets(moved)
	for i, v := range verts {
		if v != want[i] {
			t.Fatalf("frontier clobbered at %d: got %d want %d", i, v, want[i])
		}
	}
}

// TestDedupeIDs: first occurrence wins, order preserved, in-place.
func TestDedupeIDs(t *testing.T) {
	l := NewLazy(10, Increasing, 4, func(v uint32) int64 { return int64(v) })
	ids := []uint32{3, 1, 3, 7, 1, 1, 9, 3}
	got := l.DedupeIDs(ids)
	want := []uint32{3, 1, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("DedupeIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DedupeIDs = %v, want %v", got, want)
		}
	}
	if &got[0] != &ids[0] {
		t.Error("DedupeIDs must compact in place")
	}
	// A following extraction's epoch filter must be unaffected.
	if bid, verts := l.Next(); bid != 0 || len(verts) != 1 || verts[0] != 0 {
		t.Fatalf("Next after DedupeIDs = %d %v", bid, verts)
	}
}
