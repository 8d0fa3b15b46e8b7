package core

import (
	"strings"
	"testing"

	"graphit/internal/bucket"
	"graphit/internal/gen"
	"graphit/internal/graph"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: uint32(i), Dst: uint32(i + 1), W: 1})
	}
	g, err := graph.Build(edges, graph.BuildOptions{Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ssspOp(g *graph.Graph, src uint32, cfg Config) (*Ordered, []int64) {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	op := &Ordered{
		G: g, Prio: dist, Order: bucket.Increasing,
		Apply: func(s, d uint32, w int32, u *Updater) {
			u.UpdatePriorityMin(d, u.Priority(s)+int64(w))
		},
		Sources: []uint32{src},
		Cfg:     cfg,
	}
	return op, dist
}

func TestStrategyAndDirectionParsing(t *testing.T) {
	for _, name := range []string{"eager_with_fusion", "eager_no_fusion", "lazy", "lazy_constant_sum"} {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != name {
			t.Errorf("round trip %q -> %q", name, s)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("expected error for bogus strategy")
	}
	for _, name := range []string{"SparsePush", "DensePull", "DensePull-SparsePush"} {
		d, err := ParseDirection(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.String() != name {
			t.Errorf("round trip %q -> %q", name, d)
		}
	}
	// "Hybrid" is an accepted alias whose canonical spelling differs.
	if d, err := ParseDirection("Hybrid"); err != nil || d != Hybrid {
		t.Errorf("ParseDirection(Hybrid) = %v, %v", d, err)
	}
	if _, err := ParseDirection("Sideways"); err == nil {
		t.Error("expected error for bogus direction")
	}
	// Every defined value must round-trip through its own String.
	for _, s := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy, LazyConstantSum} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("strategy %v round trip: %v, %v", s, got, err)
		}
	}
	for _, d := range []Direction{SparsePush, DensePull, Hybrid} {
		got, err := ParseDirection(d.String())
		if err != nil || got != d {
			t.Errorf("direction %v round trip: %v, %v", d, got, err)
		}
	}
}

// minPlusOp is ssspOp with the native operator in place of the closure.
func minPlusOp(g *graph.Graph, src uint32, cfg Config) (*Ordered, []int64) {
	op, dist := ssspOp(g, src, cfg)
	op.Apply, op.Relax = nil, MinPlus
	return op, dist
}

func TestValidationErrors(t *testing.T) {
	g := lineGraph(t, 4)
	// Cases named in want must fail with a message containing that text.
	want := map[string]string{
		"minplus with constant sum": "lazy_constant_sum",
		"minplus higher first":      "lower_first",
		"minplus with apply":        "non-nil Apply",
		"minplus unweighted":        "weighted graph",
		"unknown relaxation":        "unknown relaxation",
		"passes under eager":        "lazy SparsePush",
		"passes with apply":         "lazy SparsePush",
	}
	cases := map[string]func() *Ordered{
		"nil graph": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.G = nil
			return op
		},
		"wrong prio length": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Prio = make([]int64, 2)
			return op
		},
		"nil apply": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Apply = nil
			return op
		},
		"eager max order": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Order = bucket.Decreasing
			return op
		},
		"negative priority": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Prio[2] = -5
			op.Sources = nil // full-scan initial frontier sees the bad vertex
			return op
		},
		"negative source priority": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Prio[0] = -1
			return op
		},
		"constant sum without const": func() *Ordered {
			cfg := DefaultConfig()
			cfg.Strategy = LazyConstantSum
			op, _ := ssspOp(g, 0, cfg)
			return op
		},
		"pull without in-edges": func() *Ordered {
			edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}}
			g2, _ := graph.Build(edges, graph.BuildOptions{Weighted: true})
			cfg := DefaultConfig()
			cfg.Strategy = Lazy
			cfg.Direction = DensePull
			op, _ := ssspOp(g2, 0, cfg)
			return op
		},
		"fusion with pull": func() *Ordered {
			cfg := DefaultConfig()
			cfg.Direction = DensePull
			op, _ := ssspOp(g, 0, cfg)
			return op
		},
		"minplus with constant sum": func() *Ordered {
			cfg := DefaultConfig()
			cfg.Strategy = LazyConstantSum
			op, _ := minPlusOp(g, 0, cfg)
			op.SumConst = -1
			return op
		},
		"minplus higher first": func() *Ordered {
			cfg := DefaultConfig()
			cfg.Strategy = Lazy
			op, _ := minPlusOp(g, 0, cfg)
			op.Order = bucket.Decreasing
			return op
		},
		"minplus with apply": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Relax = MinPlus
			return op
		},
		"minplus unweighted": func() *Ordered {
			g2, _ := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{InEdges: true})
			op, _ := minPlusOp(g2, 0, DefaultConfig())
			return op
		},
		"unknown relaxation": func() *Ordered {
			op, _ := minPlusOp(g, 0, DefaultConfig())
			op.Relax = MinPlus + 1
			return op
		},
		"passes under eager": func() *Ordered {
			op, _ := ssspOp(g, 0, DefaultConfig())
			op.Apply, op.Passes = nil, []VertexPass{func([]uint32, int, *Updater) int64 { return 0 }}
			return op
		},
		"passes with apply": func() *Ordered {
			op, _ := ssspOp(g, 0, Config{Strategy: Lazy})
			op.Passes = []VertexPass{func([]uint32, int, *Updater) int64 { return 0 }}
			return op
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := mk().Run()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if w := want[name]; !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not mention %q", err, w)
			}
		})
	}
}

// TestCoarsenMatchesDivision: the shift Config.coarsen takes for a
// power-of-two ∆ equals Go's truncating p / ∆ for every int64 the engine can
// see — negatives included, where >> alone would floor — and so does the
// lane kernel's bucketOfP, which shares the helper.
func TestCoarsenMatchesDivision(t *testing.T) {
	for _, d := range []int64{1, 2, 3, 16, 2048} {
		cfg := Config{Delta: d}
		cfg.normalize()
		if pow2 := d&(d-1) == 0; pow2 != (cfg.deltaShift >= 0) {
			t.Fatalf("∆=%d: deltaShift %d", d, cfg.deltaShift)
		}
		lane := &laneTrav{mo: &MultiOrdered{Cfg: cfg}}
		for _, p := range []int64{0, 1, d - 1, d, 1<<40 + 12345, Unreached - 1, -1, -d - 1, -(1 << 40) - 7, NullMax + 1} {
			if got, want := cfg.coarsen(p), p/d; got != want {
				t.Errorf("∆=%d: coarsen(%d) = %d, want %d", d, p, got, want)
			}
			if got := lane.bucketOfP(p); got != p/d {
				t.Errorf("∆=%d: lane bucketOfP(%d) = %d, want %d", d, p, got, p/d)
			}
		}
	}
}

func TestLineGraphRoundsAndFusion(t *testing.T) {
	const n = 64
	g := lineGraph(t, n)
	// Without fusion, each vertex is its own bucket: ~n rounds.
	cfgNo := DefaultConfig()
	cfgNo.Strategy = EagerNoFusion
	opNo, distNo := ssspOp(g, 0, cfgNo)
	stNo, err := opNo.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stNo.Rounds < n-2 {
		t.Errorf("no-fusion rounds = %d, want about %d", stNo.Rounds, n-1)
	}
	// With fusion and a coarse delta, one worker chews through the chain
	// locally: rounds collapse dramatically.
	cfgFuse := DefaultConfig()
	cfgFuse.Delta = 8
	opF, distF := ssspOp(g, 0, cfgFuse)
	stF, err := opF.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stF.Rounds >= stNo.Rounds/2 {
		t.Errorf("fusion rounds = %d vs %d without; expected a big reduction", stF.Rounds, stNo.Rounds)
	}
	if stF.FusedRounds == 0 {
		t.Error("no fused rounds recorded")
	}
	for i := 0; i < n; i++ {
		if distNo[i] != int64(i) || distF[i] != int64(i) {
			t.Fatalf("dist[%d] = %d/%d, want %d", i, distNo[i], distF[i], i)
		}
	}
}

func TestStopHaltsEarly(t *testing.T) {
	g := lineGraph(t, 100)
	cfg := DefaultConfig()
	cfg.Strategy = EagerNoFusion
	op, dist := ssspOp(g, 0, cfg)
	op.Stop = func(cur int64) bool { return cur >= 10 }
	st, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds > 15 {
		t.Errorf("stop did not halt early: %d rounds", st.Rounds)
	}
	if dist[99] != Unreached {
		t.Error("distant vertex should be unreached after early stop")
	}
	if dist[5] != 5 {
		t.Errorf("near vertex dist = %d", dist[5])
	}
}

func TestEmptySourceReturnsZeroStats(t *testing.T) {
	g := lineGraph(t, 4)
	op, dist := ssspOp(g, 0, DefaultConfig())
	dist[0] = Unreached // no active vertices at all
	st, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Relaxations != 0 {
		t.Errorf("expected empty run, got %v", st)
	}
}

func TestFinalizedVertexAfterKCoreStyleRun(t *testing.T) {
	opt := gen.DefaultRMAT(8, 6, 3)
	opt.Symmetrize = true
	g, err := gen.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.OutDegree(uint32(v)))
	}
	op := &Ordered{
		G: g, Prio: deg, Order: bucket.Increasing,
		Apply: func(s, d uint32, w int32, u *Updater) {
			u.UpdatePrioritySum(d, -1, u.GetCurrentPriority())
		},
		FinalizeOnPop: true,
		Cfg:           Config{Strategy: Lazy},
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if !op.FinalizedVertex(uint32(v)) {
			t.Fatalf("vertex %d not finalized after full k-core run", v)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Rounds: 3, Relaxations: 10}
	if !strings.Contains(s.String(), "rounds=3") {
		t.Errorf("Stats.String() = %q", s)
	}
	cfg := DefaultConfig()
	if !strings.Contains(cfg.String(), "eager_with_fusion") {
		t.Errorf("Config.String() = %q", cfg)
	}
}

func TestManualRejectsEagerSchedules(t *testing.T) {
	g := lineGraph(t, 4)
	op, _ := ssspOp(g, 0, DefaultConfig())
	if _, err := NewManual(op); err == nil {
		t.Fatal("manual mode must reject eager schedules")
	}
}

func TestManualStepwiseSSSP(t *testing.T) {
	g := lineGraph(t, 10)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	op, dist := ssspOp(g, 0, cfg)
	m, err := NewManual(op)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for !m.Finished() {
		b := m.DequeueReadySet()
		if len(b) == 0 {
			t.Fatal("empty ready set while not finished")
		}
		m.ApplyUpdatePriority(b, nil)
		rounds++
		if rounds > 100 {
			t.Fatal("manual loop did not terminate")
		}
	}
	for i := range dist {
		if dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d", i, dist[i])
		}
	}
	if m.Stats().Rounds != int64(rounds) {
		t.Errorf("stats rounds %d != loop rounds %d", m.Stats().Rounds, rounds)
	}

	// Manual runs the engine RunContext composes, so a single-worker manual
	// loop matches the compiled run answer for answer and counter for
	// counter.
	g = randomGraph(7)
	cfg.Delta = 4
	cfg.Workers = 1
	wantDist, wantSt := runSSSP(t, g, cfg)
	op, dist = ssspOp(g, 0, cfg)
	m, err = NewManual(op)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Finished() {
		if err := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	for v := range wantDist {
		if dist[v] != wantDist[v] {
			t.Fatalf("manual dist[%d] = %d, RunContext %d", v, dist[v], wantDist[v])
		}
	}
	if st := m.Stats(); st != wantSt {
		t.Errorf("manual stats %+v, RunContext %+v", st, wantSt)
	}
}

func TestApproxRejectsMaxOrderAndFinalize(t *testing.T) {
	g := lineGraph(t, 4)
	op, _ := ssspOp(g, 0, DefaultConfig())
	op.Order = bucket.Decreasing
	if _, err := op.RunApprox(); err == nil {
		t.Error("approx must reject max order")
	}
	op2, _ := ssspOp(g, 0, DefaultConfig())
	op2.FinalizeOnPop = true
	if _, err := op2.RunApprox(); err == nil {
		t.Error("approx must reject finalize-on-pop")
	}
}
