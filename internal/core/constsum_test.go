package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/gen"
	"graphit/internal/graph"
	"graphit/internal/parallel"
)

// constSumKCore returns a lazy_constant_sum k-core operator on g and its
// priority vector, which holds the coreness once the run completes.
func constSumKCore(g *graph.Graph, w int) *Ordered {
	n := g.NumVertices()
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = int64(g.OutDegree(uint32(v)))
	}
	cfg := DefaultConfig()
	cfg.Strategy, cfg.Workers, cfg.Grain = LazyConstantSum, w, 8
	return &Ordered{
		G: g, Prio: deg, Order: bucket.Increasing,
		Apply: func(s, d uint32, _ int32, u *Updater) {
			u.UpdatePrioritySum(d, -1, u.GetCurrentPriority())
		},
		SumConst: -1, SumFloorIsCurrent: true,
		FinalizeOnPop: true,
		Cfg:           cfg,
	}
}

// runOnScratch is RunContext on a caller-held scratch and executor, so a
// test can hand one run's leftovers to the next — which RunContext's pool
// never does after a fault.
func runOnScratch(ctx context.Context, o *Ordered, sc *scratch, ex *parallel.Executor) (Stats, error) {
	o.Cfg.normalize()
	if err := o.validate(); err != nil {
		return Stats{}, err
	}
	if o.FinalizeOnPop {
		o.fin = atomicutil.NewFlags(o.G.NumVertices())
	}
	active, err := o.initialActive()
	if err != nil {
		return Stats{}, err
	}
	e := o.buildEngine(sc, ex, active, newRunCtl(ctx))
	var st Stats
	err = e.run(ctx, NopTracer{}, false, &st)
	e.src.finish(&st)
	return st, err
}

func symRMAT(t *testing.T, scale, ef int, seed int64) *graph.Graph {
	t.Helper()
	opt := gen.DefaultRMAT(scale, ef, seed)
	opt.Symmetrize = true
	g, err := gen.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConstSumFaultedScratchServesCleanRun: a constant-sum k-core run that a
// PhaseRelaxChunk panic aborts mid-count leaves finalized marks, partial
// counts and undrained first touches in its scratch (at W=1 a round is one
// chunk, so the panic lands before its count and only marks are left). A
// clean run handed that scratch, and a second clean run after it (a
// completed run leaves every vertex marked), each return the reference
// coreness with the counters of a run on fresh scratch.
func TestConstSumFaultedScratchServesCleanRun(t *testing.T) {
	g := symRMAT(t, 14, 16, 17)
	want := refCoreness(g)
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			ex := parallel.NewExecutor(w)
			defer ex.Close()
			fresh, err := runOnScratch(context.Background(), constSumKCore(g, w), new(scratch), ex)
			if err != nil {
				t.Fatal(err)
			}

			// At W=1 round 2's only chunk panics. At W>1 the third chunk of
			// the first round counted in parallel (one over inlineCount
			// edges, split into 8-vertex chunks) panics.
			var mu sync.Mutex
			var curRound, chunks int64
			hook := func(phase string, round int64, _ int) {
				if phase != PhaseRelaxChunk {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if round != curRound {
					curRound, chunks = round, 0
				}
				chunks++
				if (w == 1 && round == 2) || chunks == 3 {
					panic("injected count fault")
				}
			}
			sc := new(scratch)
			_, err = runOnScratch(WithFaultHook(context.Background(), hook), constSumKCore(g, w), sc, ex)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("faulted run: err = %v, want a *PanicError", err)
			}
			if w > 1 && sc.hist.Pending() == 0 {
				t.Fatal("faulted run left no undrained first touch; the fault did not land mid-count")
			}

			for run := 1; run <= 2; run++ {
				op := constSumKCore(g, w)
				st, err := runOnScratch(context.Background(), op, sc, ex)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if op.Prio[v] != want[v] {
						t.Fatalf("clean run %d on the faulted run's scratch: coreness[%d] = %d, want %d", run, v, op.Prio[v], want[v])
					}
				}
				if st != fresh {
					t.Errorf("clean run %d on the faulted run's scratch: stats %+v, want %+v as on fresh scratch", run, st, fresh)
				}
			}
		})
	}
}

// TestManualConstSumMatchesReference: a user-driven loop under
// lazy_constant_sum peels the reference coreness. Its rounds file their
// drained vertices into the Manual's own buckets, and its DequeueReadySet
// finalizes the frontier before the round counts.
func TestManualConstSumMatchesReference(t *testing.T) {
	g := symRMAT(t, 10, 8, 17)
	want := refCoreness(g)
	for _, w := range []int{1, 2} {
		op := constSumKCore(g, w)
		m, err := NewManual(op)
		if err != nil {
			t.Fatal(err)
		}
		for !m.Finished() {
			if err := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		for v := range want {
			if op.Prio[v] != want[v] {
				t.Fatalf("W=%d: coreness[%d] = %d, want %d", w, v, op.Prio[v], want[v])
			}
		}
	}
}
