package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/gen"
	"graphit/internal/graph"
)

// groupBounds returns lane group i's range [lo, hi) when k lanes split into
// g groups: the contiguous split MultiOrdered uses.
func groupBounds(i, k, g int) (int, int) { return i * k / g, (i + 1) * k / g }

// TestMultiLaneGroupsMatchRefAndSerialGroups: for k ∈ {2, 3, 8} lanes at
// W ∈ {1, 2, 4} workers, sssp, wbfs and stopped ppsp lanes on a weighted
// R-MAT and a road grid answer exactly Spec.Ref, and each of the min(k, W)
// lane groups is the serial kernel over its own lanes: its per-lane
// counters equal a W=1 RunMulti over that group's lanes, and the run's
// shared counters are those group runs' sums.
func TestMultiLaneGroupsMatchRefAndSerialGroups(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadOptions{Rows: 24, Cols: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name  string
		g     *graph.Graph
		delta int64
	}{{"rmat", rmat, 16}, {"road", road, 256}} {
		n := gc.g.NumVertices()
		srcs := make([]graph.VertexID, 8)
		dsts := make([]graph.VertexID, 8)
		ref := make([][]int64, 8)
		for l := range srcs {
			srcs[l] = graph.VertexID((l*397 + 11) % n)
			dsts[l] = graph.VertexID((l*211 + n/2) % n)
			if ref[l], err = algo.Dijkstra(gc.g, srcs[l]); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{"sssp", "wbfs", "ppsp"} {
			sp, err := algo.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 3, 8} {
				for _, w := range []int{1, 2, 4} {
					tag := fmt.Sprintf("%s/%s k=%d W=%d", gc.name, name, k, w)
					sched := func(w int) graphit.Schedule {
						return graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy").
							ConfigApplyPriorityUpdateDelta(gc.delta).ConfigNumWorkers(w)
					}
					res, err := sp.RunMulti(context.Background(), gc.g, srcs[:k], dsts[:k], sched(w))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					for l := 0; l < k; l++ {
						if name == "ppsp" {
							if got, want := res[l].Values[dsts[l]], ref[l][dsts[l]]; got != want {
								t.Errorf("%s lane %d: pair distance %d, want %d", tag, l, got, want)
							}
							continue
						}
						for v, want := range ref[l] {
							if res[l].Values[v] != want {
								t.Fatalf("%s lane %d: dist[%d] = %d, want %d", tag, l, v, res[l].Values[v], want)
							}
						}
					}

					g := min(k, w)
					var sum core.Stats
					for i := 0; i < g; i++ {
						lo, hi := groupBounds(i, k, g)
						solo, err := sp.RunMulti(context.Background(), gc.g, srcs[lo:hi], dsts[lo:hi], sched(1))
						if err != nil {
							t.Fatalf("%s group %d: %v", tag, i, err)
						}
						for l := lo; l < hi; l++ {
							got, want := res[l].Stats, solo[l-lo].Stats
							if got.Relaxations != want.Relaxations || got.Processed != want.Processed {
								t.Errorf("%s lane %d: relax/processed %d/%d, want group %d's W=1 run's %d/%d",
									tag, l, got.Relaxations, got.Processed, i, want.Relaxations, want.Processed)
							}
						}
						shared := solo[0].Stats
						shared.Relaxations, shared.Processed = 0, 0
						for _, r := range solo {
							shared.Relaxations += r.Stats.Relaxations
							shared.Processed += r.Stats.Processed
						}
						sum.Rounds += shared.Rounds
						sum.GlobalSyncs += shared.GlobalSyncs
						sum.BucketInserts += shared.BucketInserts
						sum.WindowAdvances += shared.WindowAdvances
						sum.Relaxations += shared.Relaxations
						sum.Processed += shared.Processed
					}
					got := res[0].Stats
					got.Relaxations, got.Processed = 0, 0
					for _, r := range res[:k] {
						got.Relaxations += r.Stats.Relaxations
						got.Processed += r.Stats.Processed
					}
					if got != sum {
						t.Errorf("%s: shared counters %+v, want the group runs' sums %+v", tag, got, sum)
					}
				}
			}
		}
	}
}

// TestMultiLaneGroupsTraceOneRun: a grouped run reports to its Tracer as one
// run — one RunStart whose frontier counts every seeded lane, every group's
// rounds (delivered one at a time, which the race detector checks), and one
// RunEnd carrying the summed counters.
func TestMultiLaneGroupsTraceOneRun(t *testing.T) {
	g, err := gen.Road(gen.RoadOptions{Rows: 30, Cols: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mo, _ := laneOp(g, []graph.VertexID{0, 300, 600, 899}, 64, 2)
	tr := &core.MemTracer{}
	mo.Trace = tr
	ms, err := mo.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Info.Frontier != 4 || int64(len(tr.Events)) != ms.Rounds || tr.Final != ms.Stats || tr.Err != nil {
		t.Fatalf("trace: frontier %d, %d round events, final %+v, err %v; want 4, %d, %+v, nil",
			tr.Info.Frontier, len(tr.Events), tr.Final, tr.Err, ms.Rounds, ms.Stats)
	}
}

// laneOp builds a k-lane SSSP MultiOrdered over g at ∆=delta and w workers.
func laneOp(g *graph.Graph, srcs []graph.VertexID, delta int64, w int) (*core.MultiOrdered, [][]int64) {
	lanes := make([][]int64, len(srcs))
	for l, src := range srcs {
		lanes[l] = make([]int64, g.NumVertices())
		for v := range lanes[l] {
			lanes[l][v] = core.Unreached
		}
		lanes[l][src] = 0
	}
	cfg := core.DefaultConfig()
	cfg.Strategy = core.Lazy
	cfg.Delta = delta
	cfg.Workers = w
	return &core.MultiOrdered{G: g, Lanes: lanes, Order: bucket.Increasing, Sources: srcs, Cfg: cfg}, lanes
}

// TestMultiLaneGroupFaultStopsSibling: a panic or a stall injected into lane
// group 1 of a two-group run ends the run with that group's typed error, and
// group 0 — slowed to ~2 ms a round so it is still draining when the fault
// lands — is cancelled: it processes fewer ids than its clean run.
func TestMultiLaneGroupFaultStopsSibling(t *testing.T) {
	g, err := gen.Road(gen.RoadOptions{Rows: 100, Cols: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []graph.VertexID{0, 9999}
	clean, _ := laneOp(g, srcs, 64, 2)
	cms, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 alone: at 2 ms a round it must outlast every injected fault
	// by far.
	sib, _ := laneOp(g, srcs[:1], 64, 1)
	if st, err := sib.Run(); err != nil || st.Rounds < 200 {
		t.Fatalf("group 0 alone: %d rounds, err %v; the test needs a long sibling", st.Rounds, err)
	}
	for _, tc := range []struct {
		name  string
		fault func()
		check func(error) bool
	}{
		{"panic", func() { panic("hostile relaxation") }, func(err error) bool {
			var pe *core.PanicError
			return errors.As(err, &pe) && pe.Value == "hostile relaxation"
		}},
		{"stall", func() { time.Sleep(100 * time.Millisecond) }, func(err error) bool {
			var se *core.StuckError
			return errors.As(err, &se) && se.Reason == core.StuckRoundTimeout
		}},
	} {
		mo, _ := laneOp(g, srcs, 64, 2)
		mo.Cfg.RoundTimeout = 20 * time.Millisecond
		hook := func(phase string, round int64, worker int) {
			if phase != core.PhaseRelaxChunk {
				return
			}
			switch {
			case worker == 0:
				time.Sleep(2 * time.Millisecond)
			case worker == 1 && round == 3:
				tc.fault()
			}
		}
		ms, err := mo.RunContext(core.WithFaultHook(context.Background(), hook))
		if !tc.check(err) {
			t.Fatalf("%s: err %v, want group 1's typed fault", tc.name, err)
		}
		if got, full := ms.Lanes[0].Processed, cms.Lanes[0].Processed; got >= full {
			t.Errorf("%s: sibling lane processed %d of its clean run's %d ids; want it stopped early", tc.name, got, full)
		}
		if ms.Lanes[1].Processed >= cms.Lanes[1].Processed {
			t.Errorf("%s: faulted lane processed %d, clean %d", tc.name, ms.Lanes[1].Processed, cms.Lanes[1].Processed)
		}
		if ms.Processed != ms.Lanes[0].Processed+ms.Lanes[1].Processed {
			t.Errorf("%s: run processed %d, lanes %d + %d: partial counters not folded",
				tc.name, ms.Processed, ms.Lanes[0].Processed, ms.Lanes[1].Processed)
		}
	}
}
