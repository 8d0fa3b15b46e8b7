package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/gen"
	"graphit/internal/graph"
)

// multiOp builds a k-lane multi-source SSSP operator and returns it with the
// lane distance vectors.
func multiOp(g *graph.Graph, srcs []uint32, cfg Config) (*MultiOrdered, [][]int64) {
	n := g.NumVertices()
	lanes := make([][]int64, len(srcs))
	for l, src := range srcs {
		dist := make([]int64, n)
		for i := range dist {
			dist[i] = Unreached
		}
		dist[src] = 0
		lanes[l] = dist
	}
	mo := &MultiOrdered{
		G: g, Lanes: lanes, Order: bucket.Increasing,
		Sources: srcs,
		Cfg:     cfg,
	}
	return mo, lanes
}

// randomLazyConfig derives a valid lazy schedule (the only strategy family
// multi-source runs support) from raw bytes, covering all three directions
// (hints the lane kernel ignores) and several worker counts (which split the
// lanes into lane groups) — none of which may change any answer.
func randomLazyConfig(b, c, d uint8) Config {
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Delta = 1 << (int(b) % 9)
	cfg.NumBuckets = []int{2, 16, 128}[int(c)%3]
	switch d % 3 {
	case 0:
		cfg.Direction = SparsePush
	case 1:
		cfg.Direction = DensePull
	case 2:
		cfg.Direction = Hybrid
	}
	cfg.Grain = []int{0, 4, 64}[int(d/3)%3]
	cfg.Workers = []int{0, 1, 2, 3}[int(c/3)%4]
	return cfg
}

// TestPropertyMultiSSSPMatchesIndependentRuns: for random graphs, random lane
// counts/sources (duplicates allowed), and random lazy schedules across all
// three directions, a k-lane multi-source run leaves every lane's distance
// vector element-wise equal to an independent single-source run with the same
// schedule.
func TestPropertyMultiSSSPMatchesIndependentRuns(t *testing.T) {
	f := func(seed int64, kSel uint8, srcSeed int64, b, c, d uint8) bool {
		g := randomGraph(seed)
		n := g.NumVertices()
		k := 1 + int(kSel)%8
		rng := rand.New(rand.NewSource(srcSeed))
		srcs := make([]uint32, k)
		for l := range srcs {
			srcs[l] = uint32(rng.Intn(n))
		}
		cfg := randomLazyConfig(b, c, d)

		mo, lanes := multiOp(g, srcs, cfg)
		ms, err := mo.Run()
		if err != nil {
			t.Logf("seed=%d k=%d cfg=%v: multi run failed: %v", seed, k, cfg, err)
			return false
		}
		if len(ms.Lanes) != k {
			t.Logf("seed=%d: %d lane stats for %d lanes", seed, len(ms.Lanes), k)
			return false
		}
		for l, src := range srcs {
			op, want := ssspOp(g, src, cfg)
			if _, err := op.Run(); err != nil {
				t.Logf("seed=%d lane=%d: reference run failed: %v", seed, l, err)
				return false
			}
			for v := range want {
				if lanes[l][v] != want[v] {
					t.Logf("seed=%d srcs=%v cfg=%v: lane %d dist[%d]=%d want %d",
						seed, srcs, cfg, l, v, lanes[l][v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMultiPerLaneStopsSettlePairDistances: per-lane PPSP stop conditions halt
// each lane once its destination is settled, without disturbing any other
// lane's pair distance.
func TestMultiPerLaneStopsSettlePairDistances(t *testing.T) {
	f := func(seed int64, b, c, d uint8, dstSeed int64) bool {
		g := randomGraph(seed)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(dstSeed))
		k := 2 + int(b)%4
		srcs := make([]uint32, k)
		dsts := make([]uint32, k)
		for l := range srcs {
			srcs[l] = uint32(rng.Intn(n))
			dsts[l] = uint32(rng.Intn(n))
		}
		cfg := randomLazyConfig(b, c, d)
		mo, lanes := multiOp(g, srcs, cfg)
		mo.Stops = make([]StopFunc, k)
		for l := range mo.Stops {
			dist, dst := lanes[l], dsts[l]
			mo.Stops[l] = func(cur int64) bool {
				best := atomicutil.Load(&dist[dst])
				return best != Unreached && cur >= best
			}
		}
		if _, err := mo.Run(); err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		for l := range srcs {
			want := serialSSSP(g, srcs[l])
			if lanes[l][dsts[l]] != want[dsts[l]] {
				t.Logf("seed=%d lane=%d: pair dist %d want %d",
					seed, l, lanes[l][dsts[l]], want[dsts[l]])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMultiInertLane: a lane whose source priority is Unreached does no work
// and its vector stays untouched, while sibling lanes still converge.
func TestMultiInertLane(t *testing.T) {
	g := randomGraph(7)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	mo, lanes := multiOp(g, []uint32{2, 5}, cfg)
	lanes[1][5] = Unreached // make lane 1 inert
	ms, err := mo.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := serialSSSP(g, 2)
	for v := range want {
		if lanes[0][v] != want[v] {
			t.Fatalf("lane 0 dist[%d]=%d want %d", v, lanes[0][v], want[v])
		}
		if lanes[1][v] != Unreached {
			t.Fatalf("inert lane 1 touched at %d: %d", v, lanes[1][v])
		}
	}
	if ms.Lanes[1].Relaxations != 0 || ms.Lanes[1].Processed != 0 {
		t.Fatalf("inert lane counted work: %+v", ms.Lanes[1])
	}
}

// TestMultiLaneStatsSumToTotals: the per-lane relaxation/processed split adds
// up to the shared totals.
func TestMultiLaneStatsSumToTotals(t *testing.T) {
	g := randomGraph(11)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Direction = Hybrid
	mo, _ := multiOp(g, []uint32{1, 3, 9, 3}, cfg)
	ms, err := mo.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var relax, proc int64
	for _, ls := range ms.Lanes {
		relax += ls.Relaxations
		proc += ls.Processed
	}
	if relax != ms.Relaxations || proc != ms.Processed {
		t.Fatalf("lane sums (relax=%d proc=%d) != totals (relax=%d proc=%d)",
			relax, proc, ms.Relaxations, ms.Processed)
	}
	if st := ms.Lane(2); st.Relaxations != ms.Lanes[2].Relaxations || st.Rounds != ms.Rounds {
		t.Fatalf("Lane(2) accessor mismatch: %+v", st)
	}
	if st := ms.Lane(99); st.Relaxations != ms.Relaxations {
		t.Fatalf("out-of-range Lane() should return shared stats, got %+v", st)
	}
}

// TestMultiValidate: structural preconditions are rejected with clear errors.
func TestMultiValidate(t *testing.T) {
	g := randomGraph(3)
	base := func() *MultiOrdered {
		cfg := DefaultConfig()
		cfg.Strategy = Lazy
		mo, _ := multiOp(g, []uint32{0, 1}, cfg)
		return mo
	}
	cases := []struct {
		name   string
		mutate func(*MultiOrdered)
	}{
		{"eager strategy", func(mo *MultiOrdered) { mo.Cfg.Strategy = EagerWithFusion }},
		{"constant-sum strategy", func(mo *MultiOrdered) { mo.Cfg.Strategy = LazyConstantSum }},
		{"decreasing order", func(mo *MultiOrdered) { mo.Order = bucket.Decreasing }},
		{"zero lanes", func(mo *MultiOrdered) { mo.Lanes = nil; mo.Sources = nil }},
		{"lane length mismatch", func(mo *MultiOrdered) { mo.Lanes[1] = mo.Lanes[1][:3] }},
		{"sources length mismatch", func(mo *MultiOrdered) { mo.Sources = mo.Sources[:1] }},
		{"stops length mismatch", func(mo *MultiOrdered) { mo.Stops = make([]StopFunc, 1) }},
		{"source out of range", func(mo *MultiOrdered) { mo.Sources[0] = uint32(g.NumVertices()) }},
		{"negative source priority", func(mo *MultiOrdered) { mo.Lanes[0][mo.Sources[0]] = -1 }},
		{"too many lanes", func(mo *MultiOrdered) {
			mo.Lanes = make([][]int64, MaxLanes+1)
			for i := range mo.Lanes {
				mo.Lanes[i] = make([]int64, g.NumVertices())
			}
			mo.Sources = make([]uint32, MaxLanes+1)
		}},
	}
	for _, tc := range cases {
		mo := base()
		tc.mutate(mo)
		if _, err := mo.Run(); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// TestMultiCancellation: a pre-cancelled context halts the run at the first
// round barrier with ctx.Err and partial stats.
func TestMultiCancellation(t *testing.T) {
	g := randomGraph(5)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	mo, _ := multiOp(g, []uint32{0, 1, 2}, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mo.RunContext(ctx); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestMultiAbortsMidDrain: a lane drain keeps the engine's cancellation
// contract inside a round. With ∆ above every distance of a road grid, the
// whole one-lane run is one round — one drain of ~800k consumed ids, tens of
// milliseconds. A 1 ms RoundTimeout fires while it drains, and the kernel's
// abort poll must end the run with a *StuckError and a fraction of the clean
// run's work; checking only at segment starts, it would drain the round and
// return nil.
func TestMultiAbortsMidDrain(t *testing.T) {
	g, err := gen.Road(gen.RoadOptions{Rows: 300, Cols: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Delta = 1 << 40
	mo, _ := multiOp(g, []uint32{0}, cfg)
	clean, err := mo.Run()
	if err != nil || clean.Rounds != 1 {
		t.Fatalf("clean run: %d rounds, err %v; want one round", clean.Rounds, err)
	}

	cfg.RoundTimeout = time.Millisecond
	mo, _ = multiOp(g, []uint32{0}, cfg)
	ms, err := mo.Run()
	var se *StuckError
	if !errors.As(err, &se) || se.Reason != StuckRoundTimeout {
		t.Fatalf("err %v, want a round-timeout *StuckError", err)
	}
	if ms.Processed >= clean.Processed/2 {
		t.Errorf("aborted run processed %d of the clean run's %d ids; want it cut short", ms.Processed, clean.Processed)
	}
	if ms.Lanes[0].Processed != ms.Processed {
		t.Errorf("lane processed %d, run processed %d: partial counters not folded", ms.Lanes[0].Processed, ms.Processed)
	}
}

// TestMaxLanesFor pins the (lane, vertex) id-space bound: k·nPad must fit in
// 2^32, with nPad the vertex count rounded up to a power of two. validate
// rejects anything above it (the "too many lanes" case above is the small-
// graph end of the same check); qexec caps its windows with it.
func TestMaxLanesFor(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, MaxLanes},
		{1 << 26, MaxLanes}, // 64 · 2^26 = 2^32 exactly: fits
		{1<<26 + 1, 32},     // pads to 2^27
		{1 << 31, 2},
		{1<<31 + 1, 1}, // pads to 2^32: a single lane
		{1<<32 - 1, 1},
	} {
		if got := MaxLanesFor(tc.n); got != tc.want {
			t.Errorf("MaxLanesFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestMultiStopsWithAliasingBucketTags forces the state plane's 7-bit tags
// to alias while a lane stop is armed: T is first queued at bucket 130
// (direct edge), then improved to bucket 2 = 130-128 through a short path.
// Were the tag match trusted, T would not be re-queued, would be swept ≥ 128
// buckets late, and the lane's stop would fire at bucket 50 on the direct
// 0→dst edge — answering 50 instead of 3. NumBuckets places the aliasing
// entry in the overflow (16, 128) or in the open window (1024).
func TestMultiStopsWithAliasingBucketTags(t *testing.T) {
	const s, a, T, dst = 0, 1, 2, 3
	edges := []graph.Edge{
		{Src: s, Dst: a, W: 1}, {Src: a, Dst: T, W: 1}, // T at 2
		{Src: s, Dst: T, W: 130}, // T first seen at 130 ≡ 2 (mod 128)
		{Src: T, Dst: dst, W: 1}, // dst at 3 through T
		{Src: s, Dst: dst, W: 50},
	}
	// A long weighted tail keeps later buckets populated, so the run would
	// carry on past bucket 50 if the stop did not end it.
	const tail = 300
	for i := 0; i < tail; i++ {
		edges = append(edges, graph.Edge{Src: uint32(dst + i), Dst: uint32(dst + i + 1), W: 1})
	}
	g, err := graph.Build(edges, graph.BuildOptions{NumVertices: dst + tail + 1, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range []int{16, 128, 1024} {
		cfg := DefaultConfig()
		cfg.Strategy = Lazy
		cfg.Delta = 1
		cfg.NumBuckets = nb
		// Lane 1 is an ordinary companion so the partitioned path runs too.
		mo, lanes := multiOp(g, []uint32{s, a}, cfg)
		dsts := []uint32{dst, dst + tail}
		mo.Stops = make([]StopFunc, 2)
		for l := range mo.Stops {
			dist, d := lanes[l], dsts[l]
			mo.Stops[l] = func(cur int64) bool { return dist[d] != Unreached && cur >= dist[d] }
		}
		if _, err := mo.Run(); err != nil {
			t.Fatalf("NumBuckets=%d: %v", nb, err)
		}
		for l, src := range []uint32{s, a} {
			if got, want := lanes[l][dsts[l]], serialSSSP(g, src)[dsts[l]]; got != want {
				t.Errorf("NumBuckets=%d lane %d: pair distance %d, want %d", nb, l, got, want)
			}
		}
	}
}

// TestMultiUnweightedGraph: without weights the relaxation adds zero, so
// every vertex a lane reaches settles at its source's priority.
func TestMultiUnweightedGraph(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}},
		graph.BuildOptions{NumVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	mo, lanes := multiOp(g, []uint32{0, 3}, cfg)
	if _, err := mo.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0, 0, 0, Unreached}, {0, 0, 0, 0}}
	for l := range want {
		for v := range want[l] {
			if lanes[l][v] != want[l][v] {
				t.Errorf("lane %d dist[%d] = %d, want %d", l, v, lanes[l][v], want[l][v])
			}
		}
	}
}
