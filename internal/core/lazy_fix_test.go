package core

import (
	"testing"

	"graphit/internal/graph"
	"graphit/internal/parallel"
)

// runSSSP executes one lazy SSSP and returns (dist, stats).
func runSSSP(t *testing.T, g *graph.Graph, cfg Config) ([]int64, Stats) {
	t.Helper()
	op, dist := ssspOp(g, 0, cfg)
	st, err := op.Run()
	if err != nil {
		t.Fatalf("run %+v: %v", cfg, err)
	}
	return dist, st
}

// TestLazyEqualityAcrossWorkersAndPooling: slab recycling and the per-worker
// update buffers must be invisible — identical results AND identical
// stats across worker counts, each run taking the pooled scratch the
// previous one (sized for a different worker count) returned. Delta=1 SSSP
// is used because unit-width buckets settle every dequeued vertex (weights
// >= 1), so each round's update set is deterministic regardless of
// interleaving; the constant-sum k-core path is deterministic by
// construction (additive histogram counts).
func TestLazyEqualityAcrossWorkersAndPooling(t *testing.T) {
	for _, dir := range []Direction{SparsePush, DensePull, Hybrid} {
		t.Run(dir.String(), func(t *testing.T) {
			g := randomGraph(99)
			ref := DefaultConfig()
			ref.Strategy = Lazy
			ref.Direction = dir
			ref.Delta = 1
			ref.Workers = 1
			wantDist, wantSt := runSSSP(t, g, ref)
			for _, workers := range []int{1, 2, 4} {
				cfg := ref
				cfg.Workers = workers
				dist, st := runSSSP(t, g, cfg)
				for v := range dist {
					if dist[v] != wantDist[v] {
						t.Fatalf("workers=%d: dist[%d] = %d, want %d", workers, v, dist[v], wantDist[v])
					}
				}
				if st != wantSt {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantSt)
				}
			}
		})
	}
	t.Run("kcore", func(t *testing.T) {
		refOp, wantCore := kcoreOp(t, 5, Config{Strategy: LazyConstantSum, Workers: 1})
		wantSt, err := refOp.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			op, core := kcoreOp(t, 5, Config{Strategy: LazyConstantSum, Workers: workers})
			st, err := op.Run()
			if err != nil {
				t.Fatal(err)
			}
			for v := range core {
				if core[v] != wantCore[v] {
					t.Fatalf("workers=%d: coreness[%d] = %d, want %d", workers, v, core[v], wantCore[v])
				}
			}
			if st != wantSt {
				t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantSt)
			}
		}
	})
}

// TestParallelUpdateBucketsThroughEngine: a 20000-leaf star updates every
// leaf in its first round, from four workers' buffers at once; bucket
// placement of that one large update set must leave the multi-worker run
// equal to the single-worker run, stats included.
func TestParallelUpdateBucketsThroughEngine(t *testing.T) {
	const leaves = 20000
	edges := make([]graph.Edge, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = graph.Edge{Src: 0, Dst: uint32(i + 1), W: int32(i%97 + 1)}
	}
	g, err := graph.Build(edges, graph.BuildOptions{Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Direction = SparsePush
	cfg.Delta = 1
	cfg.Workers = 1
	wantDist, wantSt := runSSSP(t, g, cfg)
	cfg.Workers = 4
	dist, st := runSSSP(t, g, cfg)
	for v := range dist {
		if dist[v] != wantDist[v] {
			t.Fatalf("dist[%d] = %d with 4 workers, want %d", v, dist[v], wantDist[v])
		}
	}
	if st != wantSt {
		t.Fatalf("stats with 4 workers %+v, want %+v", st, wantSt)
	}
}

// TestPullRecordsEachDestinationOnce: a pull round lists every destination
// whose priority changed exactly once, even when several in-neighbours in
// the frontier improve it one after another. Each destination is swept by
// one worker, all its in-edges in a row, so a repeat win always follows the
// first in that worker's buffer; this pins the invariant the owner-append
// dedup rests on, for DensePull and for a Hybrid round that pulls.
func TestPullRecordsEachDestinationOnce(t *testing.T) {
	const (
		n   = 400
		hub = 300 // improved by every frontier vertex, each win beating the last
	)
	frontier := []uint32{0, 1, 2, 3, 4}
	var edges []graph.Edge
	for i, f := range frontier {
		edges = append(edges, graph.Edge{Src: f, Dst: hub, W: int32(50 - 10*i)})
	}
	// Vertices 10..299 each gain two improving in-edges; every third is
	// already closer than either offer, so it must not be listed.
	for v := uint32(10); v < hub; v++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: v, W: 9},
			graph.Edge{Src: 1, Dst: v, W: 5})
	}
	edges = append(edges, graph.Edge{Src: 350, Dst: 351, W: 1}) // source outside the frontier
	g, err := graph.Build(edges, graph.BuildOptions{Weighted: true, InEdges: true, NumVertices: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []Direction{DensePull, Hybrid} {
		for _, workers := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Strategy = Lazy
			cfg.Direction = dir
			cfg.Workers = workers
			cfg.Grain = 16 // many chunks, so two workers share the sweep
			op, prio := ssspOp(g, 0, cfg)
			op.Sources = frontier
			for _, f := range frontier {
				prio[f] = 0
			}
			for v := 12; v < hub; v += 3 {
				prio[v] = 1
			}
			op.Cfg.normalize()
			if err := op.validate(); err != nil {
				t.Fatal(err)
			}
			ex := parallel.NewExecutor(workers)
			e := op.buildEngine(new(scratch), ex, frontier, &runCtl{})
			before := append([]int64(nil), prio...)
			updated, pull, aborted := e.relax(0, 0, frontier)
			ex.Close()
			if !pull || aborted {
				t.Fatalf("%v w=%d: pull=%v aborted=%v, want a completed pull round", dir, workers, pull, aborted)
			}
			listed := make(map[uint32]int)
			for _, v := range updated {
				listed[v]++
				if listed[v] > 1 {
					t.Fatalf("%v w=%d: vertex %d listed %d times", dir, workers, v, listed[v])
				}
			}
			for v := range prio {
				if changed := prio[v] != before[v]; changed != (listed[uint32(v)] == 1) {
					t.Errorf("%v w=%d: vertex %d: priority %d -> %d, listed %d times", dir, workers, v, before[v], prio[v], listed[uint32(v)])
				}
			}
			if prio[hub] != 10 || listed[hub] != 1 {
				t.Errorf("%v w=%d: hub priority %d listed %d times, want 10 once", dir, workers, prio[hub], listed[hub])
			}
		}
	}
}
