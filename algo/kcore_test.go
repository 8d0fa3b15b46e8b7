package algo

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphit"
	"graphit/internal/core"
	"graphit/internal/lang/codegen"
)

func symGraphs(t *testing.T) map[string]*graphit.Graph {
	t.Helper()
	opt := graphit.DefaultRMAT(10, 8, 99)
	opt.Symmetrize = true
	rmat, err := graphit.RMAT(opt)
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	road, err := graphit.RoadGrid(graphit.RoadOptions{
		Rows: 30, Cols: 30, DeleteFrac: 0.08, DiagFrac: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("RoadGrid: %v", err)
	}
	return map[string]*graphit.Graph{"rmat": rmat, "road": road}
}

// kcoreSchedules enumerates the schedules valid for k-core (no priority
// coarsening, paper §2).
func kcoreSchedules() map[string]graphit.Schedule {
	base := graphit.DefaultSchedule()
	return map[string]graphit.Schedule{
		"eager_fusion":  base.ConfigApplyPriorityUpdate("eager_with_fusion"),
		"eager_nofuse":  base.ConfigApplyPriorityUpdate("eager_no_fusion"),
		"eager_pull":    base.ConfigApplyPriorityUpdate("eager_no_fusion").ConfigApplyDirection("DensePull"),
		"lazy":          base.ConfigApplyPriorityUpdate("lazy"),
		"lazy_pull":     base.ConfigApplyPriorityUpdate("lazy").ConfigApplyDirection("DensePull"),
		"lazy_histsum":  base.ConfigApplyPriorityUpdate("lazy_constant_sum"),
		"lazy_window16": base.ConfigApplyPriorityUpdate("lazy_constant_sum").ConfigNumBuckets(16),
	}
}

func TestKCoreMatchesReferenceAcrossSchedules(t *testing.T) {
	for gname, g := range symGraphs(t) {
		want, err := RefKCore(g)
		if err != nil {
			t.Fatalf("%s: RefKCore: %v", gname, err)
		}
		for sname, sched := range kcoreSchedules() {
			t.Run(fmt.Sprintf("%s/%s", gname, sname), func(t *testing.T) {
				got, err := KCore(g, sched)
				if err != nil {
					t.Fatalf("KCore: %v", err)
				}
				diffs := 0
				for v := range want {
					if got.Coreness[v] != want[v] {
						diffs++
						if diffs <= 5 {
							t.Errorf("coreness[%d] = %d, want %d", v, got.Coreness[v], want[v])
						}
					}
				}
				if diffs > 0 {
					t.Fatalf("%d of %d coreness values differ", diffs, len(want))
				}
			})
		}
	}
}

// TestKCoreConstantSumCountsIndependentOfWorkers: lazy_constant_sum k-core
// on a hub-heavy symmetrized R-MAT and on a road grid, through algo.KCore
// and through kcore.gt's Plan.Execute, gives the reference coreness and the
// same Rounds, Relaxations, BucketInserts and Processed at every worker
// count. The per-worker count planes are summed exactly whichever workers
// touch a vertex, so each round drains the same totals; a lost or
// double-drained first touch, or a finalized vertex's count leaking into a
// drain, shows up here as a wrong coreness or a changed counter.
func TestKCoreConstantSumCountsIndependentOfWorkers(t *testing.T) {
	// Scale 14 is the smallest R-MAT here with rounds large enough to be
	// counted by every worker (two, over 2¹⁵ edges each); the others, and
	// every road round, run on the caller.
	opt := graphit.DefaultRMAT(14, 16, 5)
	opt.Symmetrize = true
	rmat, err := graphit.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	road, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 64, Cols: 64, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 303})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("..", "testdata", "dsl", "kcore.gt"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Lookup("kcore")
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(g *graphit.Graph, w int) ([]int64, graphit.Stats, error){
		"algo": func(g *graphit.Graph, w int) ([]int64, graphit.Stats, error) {
			sched := graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy_constant_sum").ConfigNumWorkers(w)
			got, err := KCore(g, sched)
			if err != nil {
				return nil, graphit.Stats{}, err
			}
			return got.Coreness, got.Stats, nil
		},
		"kcore.gt": func(g *graphit.Graph, w int) ([]int64, graphit.Stats, error) {
			plan, err := codegen.Compile(string(src))
			if err != nil {
				return nil, graphit.Stats{}, err
			}
			cfg := plan.Schedules.Get("s1")
			cfg.Strategy, cfg.Workers = core.LazyConstantSum, w
			res, err := plan.Execute(codegen.ExecOptions{Graph: g, Argv: []string{"kcore", "-"}})
			if err != nil {
				return nil, graphit.Stats{}, err
			}
			return res.Vectors["D"], res.Stats, nil
		},
	}
	for gname, g := range map[string]*graphit.Graph{"rmat": rmat, "road": road} {
		ref, err := sp.Ref(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for rname, run := range runs {
			var base graphit.Stats
			for _, w := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%s/%s Workers=%d", gname, rname, w)
				got, st, err := run(g, w)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for v, c := range ref.Values {
					if got[v] != c {
						t.Fatalf("%s: coreness[%d] = %d, want %d", tag, v, got[v], c)
					}
				}
				if w == 1 {
					base = st
					continue
				}
				if st.Rounds != base.Rounds || st.Relaxations != base.Relaxations ||
					st.BucketInserts != base.BucketInserts || st.Processed != base.Processed {
					t.Errorf("%s: rounds/relaxations/inserts/processed = %d/%d/%d/%d, want %d/%d/%d/%d as at Workers=1",
						tag, st.Rounds, st.Relaxations, st.BucketInserts, st.Processed,
						base.Rounds, base.Relaxations, base.BucketInserts, base.Processed)
				}
			}
		}
	}
}

func TestKCoreRejectsCoarsening(t *testing.T) {
	g := symGraphs(t)["rmat"]
	_, err := KCore(g, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(4))
	if err == nil {
		t.Fatal("expected error for k-core with ∆ > 1")
	}
}

func TestKCoreRejectsDirectedGraph(t *testing.T) {
	g, err := graphit.RMAT(graphit.DefaultRMAT(6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := KCore(g, graphit.DefaultSchedule()); err == nil {
		t.Fatal("expected error for k-core on a directed graph")
	}
}

func TestUnorderedKCoreMatchesReference(t *testing.T) {
	for gname, g := range symGraphs(t) {
		want, err := RefKCore(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnorderedKCore(g, graphit.DefaultSchedule())
		if err != nil {
			t.Fatalf("%s: UnorderedKCore: %v", gname, err)
		}
		for v := range want {
			if got.Coreness[v] != want[v] {
				t.Fatalf("%s: coreness[%d] = %d, want %d", gname, v, got.Coreness[v], want[v])
			}
		}
	}
}

// TestKCoreOrderedDoesLessWork checks the Figure 1 claim: the ordered
// (bucketed) k-core performs far fewer vertex scans than the unordered
// peeling baseline.
func TestKCoreOrderedDoesLessWork(t *testing.T) {
	g := symGraphs(t)["rmat"]
	ord, err := KCore(g, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy_constant_sum"))
	if err != nil {
		t.Fatal(err)
	}
	unord, err := UnorderedKCore(g, graphit.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if unord.Stats.Relaxations <= ord.Stats.Relaxations {
		t.Errorf("unordered k-core should do more work: unordered=%d ordered=%d",
			unord.Stats.Relaxations, ord.Stats.Relaxations)
	}
}
