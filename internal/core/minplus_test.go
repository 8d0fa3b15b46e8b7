package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"graphit/internal/gen"
	"graphit/internal/graph"
)

// minPlusGraphs are a small road grid (high diameter, fusion-heavy) and a
// small R-MAT (low diameter, skewed degrees), both with in-edges for pull.
func minPlusGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	road, err := gen.Road(gen.RoadOptions{Rows: 24, Cols: 24, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 3, Jitter: 4})
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"road": road, "rmat": rmat}
}

// pairRun runs the closure form and the native MinPlus form of SSSP from src
// under cfg — through run, which may add a context or pick the approximate
// engine — and fails unless both give the same priorities and, at one
// worker, the same Stats.
func pairRun(t *testing.T, g *graph.Graph, src uint32, cfg Config, run func(*Ordered) (Stats, error)) {
	t.Helper()
	closure, want := ssspOp(g, src, cfg)
	wantSt, err := run(closure)
	if err != nil {
		t.Fatalf("closure: %v", err)
	}
	native, got := minPlusOp(g, src, cfg)
	gotSt, err := run(native)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("native MinPlus priorities differ from the closure's")
	}
	if cfg.Workers == 1 && gotSt != wantSt {
		t.Fatalf("stats differ at one worker:\nnative  %+v\nclosure %+v", gotSt, wantSt)
	}
}

// TestMinPlusMatchesApply: the native MinPlus body of every engine computes
// what the UDF closure it replaces computes — the same priorities, and at one
// worker the same Stats — under every legal direction of every strategy,
// coarsened or not, serial or parallel. Finalize-on-pop, which when coarsened
// blocks updates to vertices already dequeued in the bucket, is compared at
// one worker. The approximate engine is held to the same bar.
func TestMinPlusMatchesApply(t *testing.T) {
	legal := []struct {
		s    Strategy
		dirs []Direction
	}{
		{EagerWithFusion, []Direction{SparsePush}},
		{EagerNoFusion, []Direction{SparsePush, DensePull}},
		{Lazy, []Direction{SparsePush, DensePull, Hybrid}},
	}
	plain := func(o *Ordered) (Stats, error) { return o.Run() }
	finalize := func(o *Ordered) (Stats, error) {
		o.FinalizeOnPop = true
		return o.Run()
	}
	approx := func(o *Ordered) (Stats, error) { return o.RunApproxContext(context.Background()) }
	for name, g := range minPlusGraphs(t) {
		// ∆=512 coarsens past most weights, so finalize-on-pop bites.
		for _, delta := range []int64{1, 8, 512} {
			for _, w := range []int{1, 2} {
				cfg := DefaultConfig()
				cfg.Delta, cfg.Workers = delta, w
				for _, l := range legal {
					for _, dir := range l.dirs {
						cfg.Strategy, cfg.Direction = l.s, dir
						t.Run(fmt.Sprintf("%s/%s/%s/d%d/w%d", name, l.s, dir, delta, w), func(t *testing.T) {
							pairRun(t, g, 0, cfg, plain)
						})
						if w > 1 {
							// Coarsened finalize-on-pop answers depend on the
							// dequeue order, which parallel workers do not fix.
							continue
						}
						t.Run(fmt.Sprintf("%s/%s/%s/d%d/w%d/finalize", name, l.s, dir, delta, w), func(t *testing.T) {
							pairRun(t, g, 0, cfg, finalize)
						})
					}
				}
				cfg.Strategy, cfg.Direction = Lazy, SparsePush
				t.Run(fmt.Sprintf("%s/approx/d%d/w%d", name, delta, w), func(t *testing.T) {
					pairRun(t, g, 0, cfg, approx)
				})
			}
		}
	}
}
