package codegen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"graphit"
	"graphit/algo"
	"graphit/internal/gen"
	"graphit/internal/lang/codegen"
)

// legalSchedule is one point of the space a program's analyses allow.
type legalSchedule struct {
	strategy, direction string
	delta               int64
}

func (s legalSchedule) text() string {
	return fmt.Sprintf(`program->configApplyPriorityUpdate("s1", %q)->configApplyPriorityUpdateDelta("s1", "%d")->configApplyDirection("s1", %q);`,
		s.strategy, s.delta, s.direction)
}

func (s legalSchedule) graphit() graphit.Schedule {
	return graphit.DefaultSchedule().ConfigApplyPriorityUpdate(s.strategy).
		ConfigApplyPriorityUpdateDelta(s.delta).ConfigApplyDirection(s.direction)
}

// legalSchedules enumerates strategies (eager only on lower_first queues,
// lazy_constant_sum only where the constant-sum analysis qualifies), the
// directions each engine accepts, and ∆ ∈ {1, 8} where coarsening is allowed.
func legalSchedules(p *codegen.Plan) []legalSchedule {
	pq, info := p.Checked.PQ, p.Analysis.UDFs[p.Analysis.Loop.UDFName]
	dirs := map[string][]string{
		"eager_with_fusion": {"SparsePush"},
		"eager_no_fusion":   {"SparsePush", "DensePull"},
		"lazy":              {"SparsePush", "DensePull", "Hybrid"},
		"lazy_constant_sum": {"SparsePush"},
	}
	strategies := []string{"lazy"}
	if pq.LowerFirst {
		strategies = append(strategies, "eager_with_fusion", "eager_no_fusion")
	}
	if info.ConstantSum != nil {
		strategies = append(strategies, "lazy_constant_sum")
	}
	deltas := []int64{1}
	if pq.AllowCoarsening {
		deltas = append(deltas, 8)
	}
	var out []legalSchedule
	for _, st := range strategies {
		for _, d := range dirs[st] {
			for _, delta := range deltas {
				out = append(out, legalSchedule{st, d, delta})
			}
		}
	}
	return out
}

// TestDSLMatchesAlgoUnderEveryLegalSchedule is the DSL differential oracle:
// every non-extern testdata/dsl program, under every legal schedule, must
// produce its algo twin's vector; at Workers=1, sssp.gt and kcore.gt must
// also match the twin's Rounds, Relaxations and BucketInserts.
func TestDSLMatchesAlgoUnderEveryLegalSchedule(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 12345))
	if err != nil {
		t.Fatal(err)
	}
	symOpt := gen.DefaultRMAT(9, 8, 12345)
	symOpt.Symmetrize = true
	sym, err := gen.RMAT(symOpt)
	if err != nil {
		t.Fatal(err)
	}
	maxW := int64(0)
	for _, w := range g.Wts {
		maxW = max(maxW, int64(w))
	}
	const src, dst = 1, 200
	type twin func(s graphit.Schedule) ([]int64, graphit.Stats, error)
	cases := []struct {
		file, vector string
		g            *graphit.Graph
		argv         []string
		stats        bool // compare counters at Workers=1
		only         int  // compare only this element (early-terminating runs)
		twin         twin
	}{
		{"sssp.gt", "dist", g, []string{"1"}, true, -1, func(s graphit.Schedule) ([]int64, graphit.Stats, error) {
			r, err := algo.SSSP(g, src, s)
			return r.Dist, r.Stats, err
		}},
		{"wbfs.gt", "dist", g, []string{"1"}, false, -1, func(s graphit.Schedule) ([]int64, graphit.Stats, error) {
			r, err := algo.WBFS(g, src, s)
			return r.Dist, r.Stats, err
		}},
		{"ppsp.gt", "dist", g, []string{"1", strconv.Itoa(dst)}, false, dst, func(s graphit.Schedule) ([]int64, graphit.Stats, error) {
			r, err := algo.PPSP(g, src, dst, s)
			return r.Dist, r.Stats, err
		}},
		{"widestpath.gt", "cap", g, []string{"1", strconv.FormatInt(maxW, 10)}, false, -1, func(s graphit.Schedule) ([]int64, graphit.Stats, error) {
			r, err := algo.WidestPath(g, src, s)
			return r.Capacity, r.Stats, err
		}},
		{"kcore.gt", "D", sym, nil, true, -1, func(s graphit.Schedule) ([]int64, graphit.Stats, error) {
			r, err := algo.KCore(sym, s)
			return r.Coreness, r.Stats, err
		}},
	}
	// The DSL has no worker option: every run sizes its executor from
	// GOMAXPROCS, so the sweep sets that.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2} {
		runtime.GOMAXPROCS(workers)
		for _, c := range cases {
			b, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "dsl", c.file))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := codegen.Compile(string(b))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range legalSchedules(plan) {
				name := fmt.Sprintf("%s/%s/%s/delta%d/workers%d", c.file, s.strategy, s.direction, s.delta, workers)
				if err := plan.ApplySchedule(s.text()); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := plan.Execute(codegen.ExecOptions{Graph: c.g, Argv: append([]string{c.file, "-"}, c.argv...)})
				if err != nil {
					t.Fatalf("%s: Execute: %v", name, err)
				}
				want, wantStats, err := c.twin(s.graphit())
				if err != nil {
					t.Fatalf("%s: twin: %v", name, err)
				}
				got := res.Vectors[c.vector]
				if c.only >= 0 {
					got, want = got[c.only:c.only+1], want[c.only:c.only+1]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Execute's %s differs from the algo twin", name, c.vector)
				}
				if c.stats && workers == 1 {
					gs := res.Stats
					if gs.Rounds != wantStats.Rounds || gs.Relaxations != wantStats.Relaxations || gs.BucketInserts != wantStats.BucketInserts {
						t.Fatalf("%s: stats %s, twin %s", name, gs, wantStats)
					}
				}
			}
		}
	}
}
