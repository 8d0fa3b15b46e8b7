package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"graphit/internal/bucket"
	"graphit/internal/graph"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// cancelAfter is a Tracer that cancels its context after n round events.
// The engine must observe the cancellation at the next round barrier and
// return the partial counters with ctx.Err().
type cancelAfter struct {
	NopTracer
	after  int
	rounds int
	cancel context.CancelFunc
}

func (c *cancelAfter) Round(RoundEvent) {
	c.rounds++
	if c.rounds == c.after {
		c.cancel()
	}
}

// kcoreOp builds a constant-sum peeling operator over a symmetric graph,
// the one workload every strategy including lazy_constant_sum accepts.
func kcoreOp(t *testing.T, seed int64, cfg Config) (*Ordered, []int64) {
	t.Helper()
	dg := randomGraph(seed)
	g, err := dg.Symmetrized()
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
		SumConst: -1, SumFloorIsCurrent: true,
		FinalizeOnPop: true,
		Cfg:           cfg,
	}
	return op, deg
}

// TestCancelMidRunEveryStrategy: cancelling the context mid-run halts every
// strategy within one round barrier, returning ctx.Err() and the non-zero
// partial Stats accumulated so far.
func TestCancelMidRunEveryStrategy(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	for _, strat := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy} {
		t.Run(strat.String(), func(t *testing.T) {
			// A line graph with ∆=1 needs one round per vertex, so a
			// cancellation after 3 rounds leaves most of it unreached.
			g := lineGraph(t, 400)
			op, dist := ssspOp(g, 0, Config{Strategy: strat})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			op.Trace = &cancelAfter{after: 3, cancel: cancel}
			st, err := op.RunContext(ctx)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st.Rounds != 3 {
				t.Errorf("halted after %d rounds, want exactly 3 (one barrier after cancel)", st.Rounds)
			}
			if st.Relaxations == 0 || st.Processed == 0 {
				t.Errorf("partial stats empty: %+v", st)
			}
			if dist[len(dist)-1] != Unreached {
				t.Error("run completed despite cancellation")
			}
		})
	}
	t.Run("lazy_constant_sum", func(t *testing.T) {
		op, _ := kcoreOp(t, 11, Config{Strategy: LazyConstantSum})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		op.Trace = &cancelAfter{after: 1, cancel: cancel}
		st, err := op.RunContext(ctx)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if st.Rounds != 1 {
			t.Errorf("halted after %d rounds, want exactly 1", st.Rounds)
		}
		if st.Processed == 0 {
			t.Errorf("partial stats empty: %+v", st)
		}
	})
}

// TestPreCanceledContext: an already-dead context returns before the first
// round, with zero rounds and ctx's error, for every strategy.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy} {
		g := lineGraph(t, 50)
		op, _ := ssspOp(g, 0, Config{Strategy: strat})
		st, err := op.RunContext(ctx)
		if err != context.Canceled {
			t.Errorf("%v: err = %v, want context.Canceled", strat, err)
		}
		if st.Rounds != 0 {
			t.Errorf("%v: %d rounds ran under a dead context", strat, st.Rounds)
		}
	}
	op, _ := kcoreOp(t, 3, Config{Strategy: LazyConstantSum})
	if st, err := op.RunContext(ctx); err != context.Canceled || st.Rounds != 0 {
		t.Errorf("lazy_constant_sum: st=%+v err=%v", st, err)
	}
}

// TestDeadlinePropagates: an expired deadline surfaces as
// context.DeadlineExceeded, the same barrier semantics as cancellation.
func TestDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	g := lineGraph(t, 50)
	op, _ := ssspOp(g, 0, Config{Strategy: Lazy})
	if _, err := op.RunContext(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMemTracerRecordsRun: the in-memory tracer sees the run shape — one
// RunStart, one event per round, and the final counters.
func TestMemTracerRecordsRun(t *testing.T) {
	g := lineGraph(t, 60)
	op, _ := ssspOp(g, 0, Config{Strategy: EagerNoFusion})
	mem := &MemTracer{}
	op.Trace = mem
	st, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mem.Info.Strategy != EagerNoFusion.String() || mem.Info.NumVertices != 60 {
		t.Errorf("run info = %+v", mem.Info)
	}
	if int64(len(mem.Events)) != st.Rounds {
		t.Errorf("%d round events for %d rounds", len(mem.Events), st.Rounds)
	}
	if mem.Final != st {
		t.Errorf("final stats mismatch: %+v vs %+v", mem.Final, st)
	}
	if mem.Err != nil {
		t.Errorf("unexpected traced error: %v", mem.Err)
	}
	var relax int64
	for i, ev := range mem.Events {
		if ev.Round != int64(i+1) {
			t.Errorf("event %d has round %d", i, ev.Round)
		}
		if ev.Frontier == 0 {
			t.Errorf("round %d traced an empty frontier", ev.Round)
		}
		relax += ev.Relaxations
	}
	if relax != st.Relaxations {
		t.Errorf("per-round relaxations sum to %d, stats say %d", relax, st.Relaxations)
	}
}

// TestLazyTraceCountsUpdatedOnce: a lazy push round's trace counts each
// updated vertex once, after the seam dedup. In the round that sweeps {1, 2},
// vertex 3 wins twice with vertex 4 between, so the buffer lists 3, 4, 3.
func TestLazyTraceCountsUpdatedOnce(t *testing.T) {
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1},
		{Src: 1, Dst: 3, W: 10}, {Src: 1, Dst: 4, W: 10}, {Src: 2, Dst: 3, W: 5},
	}, graph.BuildOptions{Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	op, _ := ssspOp(g, 0, Config{Strategy: Lazy, Direction: SparsePush, Delta: 100, Workers: 1})
	mem := &MemTracer{}
	op.Trace = mem
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, ev := range mem.Events {
		got = append(got, ev.Updated)
	}
	if want := []int{2, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("per-round Updated = %v, want %v", got, want)
	}
}

// TestTracerFromContext: a Tracer installed with WithTracer reaches the
// engine when the operator sets none, and the explicit Trace field wins
// over the context's.
func TestTracerFromContext(t *testing.T) {
	g := lineGraph(t, 30)
	op, _ := ssspOp(g, 0, Config{Strategy: Lazy})
	fromCtx := &MemTracer{}
	if _, err := op.RunContext(WithTracer(context.Background(), fromCtx)); err != nil {
		t.Fatal(err)
	}
	if len(fromCtx.Events) == 0 {
		t.Error("context tracer saw no rounds")
	}

	op2, _ := ssspOp(g, 0, Config{Strategy: Lazy})
	explicit, ignored := &MemTracer{}, &MemTracer{}
	op2.Trace = explicit
	if _, err := op2.RunContext(WithTracer(context.Background(), ignored)); err != nil {
		t.Fatal(err)
	}
	if len(explicit.Events) == 0 || len(ignored.Events) != 0 {
		t.Errorf("Trace field should override context tracer: explicit=%d ignored=%d",
			len(explicit.Events), len(ignored.Events))
	}
}

// TestJSONTracerEmitsValidLines: every line the JSON tracer writes is a
// standalone JSON object, framed run_start / round* / run_end, and the
// round count matches the engine's.
func TestJSONTracerEmitsValidLines(t *testing.T) {
	g := lineGraph(t, 40)
	op, _ := ssspOp(g, 0, Config{Strategy: EagerWithFusion})
	var buf bytes.Buffer
	op.Trace = NewJSONTracer(&buf)
	st, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if int64(len(lines)) != st.Rounds+2 {
		t.Fatalf("%d lines for %d rounds (want rounds+2)", len(lines), st.Rounds)
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		event, _ := obj["event"].(string)
		switch {
		case i == 0:
			if event != "run_start" {
				t.Errorf("first event = %q", event)
			}
			if obj["num_vertices"].(float64) != 40 {
				t.Errorf("run_start payload: %v", obj)
			}
		case i == len(lines)-1:
			if event != "run_end" {
				t.Errorf("last event = %q", event)
			}
			if _, hasErr := obj["error"]; hasErr {
				t.Errorf("clean run traced an error: %v", obj)
			}
			if int64(obj["rounds"].(float64)) != st.Rounds {
				t.Errorf("run_end rounds = %v, want %d", obj["rounds"], st.Rounds)
			}
		default:
			if event != "round" {
				t.Errorf("line %d event = %q", i, event)
			}
			for _, key := range []string{"round", "bucket", "frontier", "relaxations", "wall_ns"} {
				if _, ok := obj[key]; !ok {
					t.Errorf("round record missing %q: %v", key, obj)
				}
			}
		}
	}
}

// TestJSONTracerRecordsCancellation: a cancelled run still closes the
// stream with a run_end record carrying the context error.
func TestJSONTracerRecordsCancellation(t *testing.T) {
	g := lineGraph(t, 200)
	op, _ := ssspOp(g, 0, Config{Strategy: Lazy})
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fan the round events out so one tracer writes JSON while the other
	// cancels the run after two rounds.
	canceller := &cancelAfter{after: 2, cancel: cancel}
	op.Trace = teeTracer{NewJSONTracer(&buf), canceller}
	if _, err := op.RunContext(ctx); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var last map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last["event"] != "run_end" || last["error"] != context.Canceled.Error() {
		t.Errorf("final record = %v", last)
	}
}

// teeTracer fans events out to two tracers.
type teeTracer struct{ a, b Tracer }

func (t teeTracer) RunStart(i RunInfo)        { t.a.RunStart(i); t.b.RunStart(i) }
func (t teeTracer) Round(e RoundEvent)        { t.a.Round(e); t.b.Round(e) }
func (t teeTracer) RunEnd(s Stats, err error) { t.a.RunEnd(s, err); t.b.RunEnd(s, err) }

// TestCrossStrategyAgreement: every strategy/direction pair computes the
// identical final priority vector on the same inputs, and the unified
// loop's counter invariants hold across all of them.
func TestCrossStrategyAgreement(t *testing.T) {
	configs := []Config{
		{Strategy: EagerWithFusion},
		{Strategy: EagerNoFusion},
		{Strategy: EagerNoFusion, Direction: DensePull},
		{Strategy: Lazy},
		{Strategy: Lazy, Direction: DensePull},
		{Strategy: Lazy, Direction: Hybrid},
	}
	for _, seed := range []int64{1, 17, 23, 99} {
		for _, delta := range []int64{1, 4, 32} {
			g := randomGraph(seed)
			src := uint32(2 % g.NumVertices())
			var want []int64
			for _, cfg := range configs {
				cfg.Delta = delta
				op, dist := ssspOp(g, src, cfg)
				st, err := op.Run()
				if err != nil {
					t.Fatalf("seed=%d ∆=%d %v/%v: %v", seed, delta, cfg.Strategy, cfg.Direction, err)
				}
				if want == nil {
					want = dist
				} else {
					for v := range want {
						if dist[v] != want[v] {
							t.Fatalf("seed=%d ∆=%d %v/%v: dist[%d]=%d, %v gave %d",
								seed, delta, cfg.Strategy, cfg.Direction, v, dist[v],
								configs[0].Strategy, want[v])
						}
					}
				}
				// Push-only runs never process a vertex that was not first
				// inserted into a bucket. (Pull rounds scan all vertices, so
				// the bound holds only without pull traversal.)
				if cfg.Direction == SparsePush && st.PullRounds == 0 && st.Processed > st.BucketInserts {
					t.Errorf("seed=%d ∆=%d %v: Processed=%d > BucketInserts=%d",
						seed, delta, cfg.Strategy, st.Processed, st.BucketInserts)
				}
				// Each round costs at most one global barrier, and fusion is
				// the only way to absorb extra bucket iterations into one.
				if st.Rounds > st.GlobalSyncs+st.FusedRounds {
					t.Errorf("seed=%d ∆=%d %v/%v: Rounds=%d > GlobalSyncs=%d + FusedRounds=%d",
						seed, delta, cfg.Strategy, cfg.Direction, st.Rounds, st.GlobalSyncs, st.FusedRounds)
				}
			}
		}
	}
}

// TestPooledScratchReuse: the pool hands a run's scratch to the next run
// as-is, trusting the invariant that it is clean at every round barrier. So
// scratch released by a PPSP run its Stop cut short, by a run cancelled at a
// barrier, and by a run on a larger graph (buffers grown past the next run's
// size) must leave the following runs reference-equal, Stats included.
func TestPooledScratchReuse(t *testing.T) {
	configs := []Config{
		{Strategy: Lazy, Direction: SparsePush, Delta: 1, Workers: 2},
		{Strategy: Lazy, Direction: DensePull, Delta: 1, Workers: 2},
		{Strategy: Lazy, Direction: Hybrid, Delta: 1, Workers: 2},
		{Strategy: EagerWithFusion, Delta: 4, Workers: 1},
	}
	g := randomGraph(99)
	big := lineGraph(t, 1000)
	for _, cfg := range configs {
		t.Run(cfg.Strategy.String()+"/"+cfg.Direction.String(), func(t *testing.T) {
			wantDist, wantSt := runSSSP(t, g, cfg)
			check := func(after string) {
				t.Helper()
				for i := 0; i < 2; i++ {
					dist, st := runSSSP(t, g, cfg)
					for v := range dist {
						if dist[v] != wantDist[v] {
							t.Fatalf("after %s, run %d: dist[%d] = %d, want %d", after, i, v, dist[v], wantDist[v])
						}
					}
					if st != wantSt {
						t.Fatalf("after %s, run %d: stats %+v, want %+v", after, i, st, wantSt)
					}
				}
			}

			// PPSP: stop once the bucket passes the target's distance.
			target := 0
			for v, d := range wantDist {
				if d != Unreached && d > wantDist[target] {
					target = v
				}
			}
			op, _ := ssspOp(g, 0, cfg)
			op.Stop = func(cur int64) bool { return cur > wantDist[target]/2 }
			st, err := op.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Rounds >= wantSt.Rounds {
				t.Fatalf("stopped run did not stop early: %+v", st)
			}
			check("a stopped PPSP run")

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			op, _ = ssspOp(g, 0, cfg)
			op.Trace = &cancelAfter{after: 2, cancel: cancel}
			if _, err := op.RunContext(ctx); err != context.Canceled {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			check("a cancelled run")

			op, dist := ssspOp(big, 0, cfg)
			if _, err := op.Run(); err != nil {
				t.Fatal(err)
			}
			if last := len(dist) - 1; dist[last] != int64(last) {
				t.Fatalf("larger graph: dist[%d] = %d", last, dist[last])
			}
			check("a larger-graph run")
		})
	}
}
