package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphit/internal/bucket"
	"graphit/internal/graph"
)

// randomGraph builds a random weighted digraph from a seed.
func randomGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(120)
	m := n * (1 + rng.Intn(6))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			Src: uint32(rng.Intn(n)),
			Dst: uint32(rng.Intn(n)),
			W:   int32(1 + rng.Intn(50)),
		})
	}
	g, err := graph.Build(edges, graph.BuildOptions{
		NumVertices: n, Weighted: true, InEdges: true,
		RemoveSelfLoops: true, RemoveDuplicates: true,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// serialSSSP is an independent O(V²) Dijkstra.
func serialSSSP(g *graph.Graph, src uint32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	done := make([]bool, n)
	for {
		best, bv := Unreached, -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best, bv = dist[v], v
			}
		}
		if bv < 0 {
			break
		}
		done[bv] = true
		wts := g.OutWts(uint32(bv))
		for i, d := range g.OutNeigh(uint32(bv)) {
			if nd := best + int64(wts[i]); nd < dist[d] {
				dist[d] = nd
			}
		}
	}
	return dist
}

// randomConfig derives a valid min-queue schedule from raw bytes.
func randomConfig(a, b, c, d uint8) Config {
	cfg := DefaultConfig()
	cfg.Strategy = []Strategy{EagerWithFusion, EagerNoFusion, Lazy}[int(a)%3]
	cfg.Delta = 1 << (int(b) % 9)
	cfg.FusionThreshold = []int{1, 8, 1000}[int(c)%3]
	cfg.NumBuckets = []int{2, 16, 128}[int(c/3)%3]
	if cfg.Strategy == Lazy {
		switch d % 4 {
		case 0:
			cfg.Direction = DensePull
		case 1:
			cfg.Direction = Hybrid
		}
	}
	cfg.Grain = []int{0, 4, 64}[int(d)%3]
	return cfg
}

// TestPropertySSSPAllSchedulesMatchDijkstra: for random graphs, sources,
// and schedules, the ordered engine computes exact shortest paths.
func TestPropertySSSPAllSchedulesMatchDijkstra(t *testing.T) {
	f := func(seed int64, srcSel uint16, a, b, c, d uint8) bool {
		g := randomGraph(seed)
		src := uint32(int(srcSel) % g.NumVertices())
		cfg := randomConfig(a, b, c, d)
		op, dist := ssspOp(g, src, cfg)
		if _, err := op.Run(); err != nil {
			t.Logf("cfg %v rejected: %v", cfg, err)
			return false
		}
		want := serialSSSP(g, src)
		for v := range want {
			if dist[v] != want[v] {
				t.Logf("seed=%d src=%d cfg=%v: dist[%d]=%d want %d",
					seed, src, cfg, v, dist[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStatsInvariants: counters are internally consistent across
// random runs — processed ≤ relaxation sources, fused rounds only with the
// fusion strategy, rounds positive when work was done.
func TestPropertyStatsInvariants(t *testing.T) {
	f := func(seed int64, a, b, c, d uint8) bool {
		g := randomGraph(seed)
		cfg := randomConfig(a, b, c, d)
		op, _ := ssspOp(g, 1%uint32(g.NumVertices()), cfg)
		st, err := op.Run()
		if err != nil {
			return false
		}
		if st.Processed > 0 && st.Rounds == 0 {
			return false
		}
		if cfg.Strategy != EagerWithFusion && st.FusedRounds != 0 {
			return false
		}
		if st.Relaxations < 0 || st.BucketInserts < 0 {
			return false
		}
		// Every relaxation that won inserted into a bucket, so inserts
		// never exceed relaxations (plus initial placements).
		if st.BucketInserts > st.Relaxations+int64(g.NumVertices()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyManualMatchesCompiled: the user-driven loop and RunOrdered
// agree under lazy schedules.
func TestPropertyManualMatchesCompiled(t *testing.T) {
	f := func(seed int64, b uint8) bool {
		g := randomGraph(seed)
		src := uint32(3 % g.NumVertices())
		cfg := DefaultConfig()
		cfg.Strategy = Lazy
		cfg.Delta = 1 << (int(b) % 7)

		opA, distA := ssspOp(g, src, cfg)
		if _, err := opA.Run(); err != nil {
			return false
		}
		opB, distB := ssspOp(g, src, cfg)
		m, err := NewManual(opB)
		if err != nil {
			return false
		}
		for i := 0; !m.Finished(); i++ {
			m.ApplyUpdatePriority(m.DequeueReadySet(), nil)
			if i > 10*g.NumVertices() {
				return false // no termination
			}
		}
		for v := range distA {
			if distA[v] != distB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyApproxConvergesExactly: the approximate-ordering engine runs
// to quiescence, so its final distances are exact despite reordering.
func TestPropertyApproxConvergesExactly(t *testing.T) {
	f := func(seed int64, b uint8) bool {
		g := randomGraph(seed)
		src := uint32(5 % g.NumVertices())
		cfg := DefaultConfig()
		cfg.Delta = 1 << (int(b) % 8)
		op, dist := ssspOp(g, src, cfg)
		if _, err := op.RunApprox(); err != nil {
			return false
		}
		want := serialSSSP(g, src)
		for v := range want {
			if dist[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyKCoreAllStrategies: coreness matches sequential peeling on
// random symmetric graphs for every strategy (the constant-sum histogram,
// plain lazy, and both eager variants).
// refCoreness is an independent sequential bucket-queue peeling.
func refCoreness(g *graph.Graph) []int64 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(uint32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	for k := 0; k <= maxDeg; k++ {
		for i := 0; i < len(buckets[k]); i++ {
			v := buckets[k][i]
			if removed[v] || deg[v] != k {
				continue
			}
			removed[v] = true
			core[v] = int64(k)
			for _, u := range g.OutNeigh(v) {
				if !removed[u] && deg[u] > k {
					deg[u]--
					b := deg[u]
					if b < k {
						b = k
					}
					buckets[b] = append(buckets[b], u)
				}
			}
		}
	}
	return core
}

func TestPropertyKCoreAllStrategies(t *testing.T) {
	strategies := []Strategy{LazyConstantSum, Lazy, EagerNoFusion, EagerWithFusion}
	f := func(seed int64, sSel uint8) bool {
		dg := randomGraph(seed)
		g, err := dg.Symmetrized()
		if err != nil {
			return false
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
			SumConst: -1, SumFloorIsCurrent: true,
			FinalizeOnPop: true,
			Cfg:           Config{Strategy: strategies[int(sSel)%len(strategies)]},
		}
		if _, err := op.Run(); err != nil {
			return false
		}
		want := refCoreness(g)
		for v := range want {
			if deg[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
