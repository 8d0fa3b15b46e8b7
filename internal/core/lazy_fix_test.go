package core

import (
	"testing"

	"graphit/internal/graph"
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

// TestNoDedupMatchesDedup: without CAS dedup, SparsePush emits duplicate ids
// into the round's update buffer; the lazy source dedupes them at the update
// seam, so disabling dedup must change neither the results nor the stats
// (previously duplicates reached Lazy.UpdateBuckets — violating its
// precondition — and inflated Stats.BucketInserts).
func TestNoDedupMatchesDedup(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(seed)
		base := DefaultConfig()
		base.Strategy = Lazy
		base.Direction = SparsePush
		base.Delta = 4
		base.Workers = 1
		withDedup := base
		noDedup := base
		noDedup.NoDedup = true

		distA, stA := runSSSP(t, g, withDedup)
		distB, stB := runSSSP(t, g, noDedup)
		for v := range distA {
			if distA[v] != distB[v] {
				t.Fatalf("seed %d: dist[%d] = %d with dedup, %d without", seed, v, distA[v], distB[v])
			}
		}
		if stA != stB {
			t.Fatalf("seed %d: stats diverge with dedup on/off:\n  dedup:   %+v\n  nodedup: %+v", seed, stA, stB)
		}

		// Multi-worker arm: per-round interleavings are not deterministic, so
		// only the converged results are asserted.
		withDedup.Workers = 4
		noDedup.Workers = 4
		distC, _ := runSSSP(t, g, withDedup)
		distD, _ := runSSSP(t, g, noDedup)
		for v := range distC {
			if distC[v] != distD[v] {
				t.Fatalf("seed %d workers=4: dist[%d] = %d with dedup, %d without", seed, v, distC[v], distD[v])
			}
		}
	}
}

// TestLazyEqualityAcrossWorkersAndPooling: slab recycling and the internal
// UpdateBuckets fan-out must be invisible — identical results AND identical
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

// TestParallelUpdateBucketsThroughEngine: a 20000-leaf star crosses the
// parallel UpdateBuckets cutoff in its first round (every leaf is updated at
// once), so a multi-worker run exercises the counting-sort placement path
// end-to-end; it must match the single-worker run exactly, stats included.
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
