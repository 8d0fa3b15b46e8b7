package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/gen"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// ---------------------------------------------------------------------------
// Injector unit tests (no engine involved).
// ---------------------------------------------------------------------------

func catchPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestTriggerMatching(t *testing.T) {
	in := New(PanicAt(core.PhaseRelaxChunk, 2, "boom"))
	hook := in.Hook()
	if v := catchPanic(func() { hook(core.PhaseRelaxChunk, 1, 0) }); v != nil {
		t.Fatalf("fired on wrong round: %v", v)
	}
	if v := catchPanic(func() { hook(core.PhaseRelax, 2, 0) }); v != nil {
		t.Fatalf("fired on wrong phase: %v", v)
	}
	if v := catchPanic(func() { hook(core.PhaseRelaxChunk, 2, 3) }); v != "boom" {
		t.Fatalf("expected panic \"boom\", got %v", v)
	}
	// One-shot: the trigger must not fire again.
	if v := catchPanic(func() { hook(core.PhaseRelaxChunk, 2, 0) }); v != nil {
		t.Fatalf("one-shot trigger fired twice: %v", v)
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].Round != 2 || evs[0].Worker != 3 || evs[0].Action != ActionPanic {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestOccurrenceAndRepeat(t *testing.T) {
	in := New(Trigger{Phase: "p", Occurrence: 3, PanicValue: "x"})
	hook := in.Hook()
	for i := 0; i < 2; i++ {
		if v := catchPanic(func() { hook("p", 1, 0) }); v != nil {
			t.Fatalf("fired before occurrence 3: %v", v)
		}
	}
	if v := catchPanic(func() { hook("p", 1, 0) }); v != "x" {
		t.Fatalf("did not fire on occurrence 3: %v", v)
	}

	rep := New(Trigger{Phase: "p", Repeat: true, PanicValue: "y"})
	rh := rep.Hook()
	for i := 0; i < 3; i++ {
		if v := catchPanic(func() { rh("p", int64(i+1), 0) }); v != "y" {
			t.Fatalf("repeat trigger missed firing %d: %v", i, v)
		}
	}
	if got := rep.Fired("p"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
}

func TestRepeatTimesCapsFiring(t *testing.T) {
	// Repeat with Times: "fail the first 2 fsyncs, then heal".
	in := New(Trigger{Phase: "p", Repeat: true, Times: 2, PanicValue: "z"})
	hook := in.Hook()
	for i := 0; i < 2; i++ {
		if v := catchPanic(func() { hook("p", int64(i+1), 0) }); v != "z" {
			t.Fatalf("capped trigger missed firing %d: %v", i, v)
		}
	}
	for i := 2; i < 5; i++ {
		if v := catchPanic(func() { hook("p", int64(i+1), 0) }); v != nil {
			t.Fatalf("trigger fired past Times cap at checkpoint %d: %v", i, v)
		}
	}
	if got := in.Fired("p"); got != 2 {
		t.Fatalf("Fired = %d, want 2 (Times cap)", got)
	}

	// Times without Repeat is ignored: still one-shot.
	one := New(Trigger{Phase: "p", Times: 3, PanicValue: "w"})
	oh := one.Hook()
	if v := catchPanic(func() { oh("p", 1, 0) }); v != "w" {
		t.Fatalf("one-shot did not fire: %v", v)
	}
	if v := catchPanic(func() { oh("p", 2, 0) }); v != nil {
		t.Fatalf("one-shot fired twice: %v", v)
	}
}

func TestSeededPanicDeterminism(t *testing.T) {
	rounds := func(seed uint64) []int64 {
		in := New(SeededPanic("p", seed, 4, "s"))
		hook := in.Hook()
		var fired []int64
		for r := int64(1); r <= 200; r++ {
			if catchPanic(func() { hook("p", r, 0) }) != nil {
				fired = append(fired, r)
			}
		}
		return fired
	}
	a, b := rounds(7), rounds(7)
	if len(a) == 0 {
		t.Fatal("seeded trigger never fired in 200 rounds")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed fired differently: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed fired differently: %v vs %v", a, b)
		}
	}
	if c := rounds(8); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds fired on identical rounds")
		}
	}
}

// ---------------------------------------------------------------------------
// Engine integration: the acceptance matrix. Everything below runs with the
// goroutine-leak assertion active and is exercised under -race in CI.
// ---------------------------------------------------------------------------

// ssspGraph is a deterministic scale-8 R-MAT graph with weights and in-edges
// (DensePull needs them).
func ssspGraph(t *testing.T) *graphit.Graph {
	t.Helper()
	opt := gen.DefaultRMAT(8, 8, 42)
	opt.MaxW = 32
	opt.InEdges = true
	g, err := gen.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// kcoreGraph is the symmetrized, unweighted variant for constant-sum.
func kcoreGraph(t *testing.T) *graphit.Graph {
	t.Helper()
	opt := gen.DefaultRMAT(8, 8, 43)
	opt.InEdges = true
	opt.Symmetrize = true
	g, err := gen.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ssspOp builds a fresh SSSP operator (fresh priority vector) over g.
func ssspOp(g *graphit.Graph, src graphit.VertexID) (*graphit.Ordered, []int64) {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = graphit.Unreached
	}
	dist[src] = 0
	op := &graphit.Ordered{
		G: g, Prio: dist, Order: graphit.LowerFirst,
		Apply: func(s, d graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
			q.UpdatePriorityMin(d, q.Priority(s)+int64(w))
		},
		Sources: []graphit.VertexID{src},
	}
	return op, dist
}

// kcoreOp builds a fresh k-core peeling operator over the symmetric g.
func kcoreOp(g *graphit.Graph) (*graphit.Ordered, []int64) {
	deg := make([]int64, g.NumVertices())
	for v := range deg {
		deg[v] = int64(g.OutDegree(graphit.VertexID(v)))
	}
	op := &graphit.Ordered{
		G: g, Prio: deg, Order: graphit.LowerFirst,
		Apply: func(s, d graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
			q.UpdatePrioritySum(d, -1, q.GetCurrentPriority())
		},
		SumConst:          -1,
		SumFloorIsCurrent: true,
		FinalizeOnPop:     true,
	}
	return op, deg
}

// strategyCase is one cell of the strategy × direction acceptance matrix.
type strategyCase struct {
	name  string
	sched graphit.Schedule
	kcore bool // use the k-core operator (constant-sum) instead of SSSP
}

func strategyCases() []strategyCase {
	return []strategyCase{
		{
			name: "eager_with_fusion",
			sched: graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("eager_with_fusion").
				ConfigApplyPriorityUpdateDelta(4),
		},
		{
			name: "eager_no_fusion_pull",
			sched: graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("eager_no_fusion").
				ConfigApplyPriorityUpdateDelta(4).
				ConfigApplyDirection("DensePull"),
		},
		{
			name: "lazy",
			sched: graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("lazy").
				ConfigApplyPriorityUpdateDelta(4),
		},
		{
			name: "lazy_constant_sum",
			sched: graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("lazy_constant_sum"),
			kcore: true,
		},
	}
}

// buildOp returns a fresh operator (and its priority vector) for the case.
func (c strategyCase) buildOp(g, gsym *graphit.Graph) (*graphit.Ordered, []int64) {
	if c.kcore {
		return kcoreOp(gsym)
	}
	return ssspOp(g, 1)
}

// baseline runs the case fault-free and returns the converged priorities.
func (c strategyCase) baseline(t *testing.T, g, gsym *graphit.Graph) []int64 {
	t.Helper()
	op, prio := c.buildOp(g, gsym)
	if _, err := graphit.RunOrderedContext(context.Background(), op, c.sched); err != nil {
		t.Fatalf("fault-free %s run failed: %v", c.name, err)
	}
	return append([]int64(nil), prio...)
}

func samePrio(t *testing.T, want, got []int64, label string) {
	t.Helper()
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("%s: priority of vertex %d = %d, want %d", label, v, got[v], want[v])
		}
	}
}

// TestPanicContainment is the first acceptance criterion: a panic injected
// into any of the four strategies returns a *PanicError from
// RunOrderedContext with partial Stats, the process stays alive, and the
// executor pool is reusable — a fresh run on the same pool converges.
func TestPanicContainment(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g, gsym := ssspGraph(t), kcoreGraph(t)
	for _, c := range strategyCases() {
		t.Run(c.name, func(t *testing.T) {
			want := c.baseline(t, g, gsym)

			op, _ := c.buildOp(g, gsym)
			in := New(PanicAt(core.PhaseRelaxChunk, 2, "injected fault"))
			st, err := graphit.RunOrderedContext(in.Context(context.Background()), op, c.sched)
			var pe *graphit.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("expected *PanicError, got %v", err)
			}
			if pe.Value != "injected fault" {
				t.Fatalf("panic value = %v", pe.Value)
			}
			if pe.Round != 2 {
				t.Fatalf("PanicError.Round = %d, want 2", pe.Round)
			}
			if pe.Phase != core.PhaseRelax && pe.Phase != core.PhaseRelaxChunk {
				t.Fatalf("PanicError.Phase = %q", pe.Phase)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("PanicError.Stack empty")
			}
			if st.Rounds < 1 {
				t.Fatalf("partial Stats lost: %+v", st)
			}
			if got := in.Fired(core.PhaseRelaxChunk); got != 1 {
				t.Fatalf("trigger fired %d times, want 1", got)
			}

			// The pool must be intact: the next run reuses it and converges.
			op2, prio2 := c.buildOp(g, gsym)
			if _, err := graphit.RunOrderedContext(context.Background(), op2, c.sched); err != nil {
				t.Fatalf("run after contained panic failed: %v", err)
			}
			samePrio(t, want, prio2, "post-fault rerun")
		})
	}
}

// TestWatchdogTimeout holds a round in flight past Cfg.RoundTimeout and
// expects a *StuckError with partial Stats; a fresh run afterwards reuses
// the pool and converges to the fault-free result.
func TestWatchdogTimeout(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := ssspGraph(t)
	c := strategyCase{
		name: "lazy",
		sched: graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("lazy").
			ConfigApplyPriorityUpdateDelta(4),
	}
	want := c.baseline(t, g, nil)

	t.Run("fail", func(t *testing.T) {
		op, _ := c.buildOp(g, nil)
		in := New(DelayAt(core.PhaseRelaxChunk, 2, 300*time.Millisecond))
		st, err := graphit.RunOrderedContext(in.Context(context.Background()), op,
			c.sched.ConfigRoundTimeout(30*time.Millisecond))
		var se *graphit.StuckError
		if !errors.As(err, &se) {
			t.Fatalf("expected *StuckError, got %v", err)
		}
		if se.Reason != core.StuckRoundTimeout {
			t.Fatalf("StuckError.Reason = %q", se.Reason)
		}
		if se.Round != 2 {
			t.Fatalf("StuckError.Round = %d, want 2", se.Round)
		}
		if len(se.Recent) == 0 {
			t.Fatal("StuckError.Recent empty: no per-round context attached")
		}
		if st.Rounds < 1 {
			t.Fatalf("partial Stats lost: %+v", st)
		}

		op2, prio2 := c.buildOp(g, nil)
		if _, err := graphit.RunOrderedContext(context.Background(), op2, c.sched); err != nil {
			t.Fatalf("run after watchdog abort failed: %v", err)
		}
		samePrio(t, want, prio2, "post-timeout rerun")
	})
}

// TestRoundTimeoutChargesStalledRound stalls round 2 outside its relax
// phase, in next_bucket and in update_buckets, past a 10ms RoundTimeout.
// Either way round 2 fails with a timeout *StuckError whose Elapsed covers
// the stall: the round is timed from before its next_bucket, and one that
// overruns in its last phase is judged at its own end, not charged to the
// round after it.
func TestRoundTimeoutChargesStalledRound(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := ssspGraph(t)
	sched := graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate("lazy").
		ConfigApplyPriorityUpdateDelta(4).
		ConfigNumWorkers(1).
		ConfigRoundTimeout(10 * time.Millisecond)
	const stall = 100 * time.Millisecond
	for _, phase := range []string{core.PhaseNext, core.PhaseUpdate} {
		t.Run(phase, func(t *testing.T) {
			op, _ := ssspOp(g, 1)
			in := New(DelayAt(phase, 2, stall))
			_, err := graphit.RunOrderedContext(in.Context(context.Background()), op, sched)
			var se *graphit.StuckError
			if !errors.As(err, &se) || se.Reason != core.StuckRoundTimeout {
				t.Fatalf("expected a timeout *StuckError, got %v", err)
			}
			if se.Round != 2 || se.Elapsed < stall {
				t.Fatalf("StuckError names round %d after %v, want round 2 after at least %v", se.Round, se.Elapsed, stall)
			}
		})
	}
}

// TestCancelMidRound cancels the run's own context from inside a round; with
// a RoundTimeout armed the abort lands mid-round, not at the next barrier.
func TestCancelMidRound(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := ssspGraph(t)
	for _, c := range strategyCases() {
		if c.kcore {
			continue // same engine path; SSSP keeps the subtest uniform
		}
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			op, _ := ssspOp(g, 1)
			in := New(CancelAt(core.PhaseRelaxChunk, 2, cancel))
			st, err := graphit.RunOrderedContext(in.Context(ctx), op,
				c.sched.ConfigRoundTimeout(time.Second))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
			if st.Rounds < 1 {
				t.Fatalf("partial Stats lost: %+v", st)
			}
		})
	}
}

// TestSetCoverFaults runs SetCover's two vertex passes under the engine's
// run contract: a panic in a pass chunk returns a *PanicError, a stalled
// round under RoundTimeout a *StuckError, and a cancel mid-round the
// context's error — each with the partial cover and its Stats — and a
// fresh run on the same pool afterwards picks the fault-free cover.
func TestSetCoverFaults(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := kcoreGraph(t)
	sched := graphit.DefaultSchedule().ConfigNumWorkers(2)
	want, err := algo.SetCover(g, sched.ConfigNumWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sched graphit.Schedule
		in    func(cancel context.CancelFunc) *Injector
		check func(t *testing.T, err error)
	}{
		{"panic", sched, func(context.CancelFunc) *Injector {
			return New(PanicAt(core.PhaseRelaxChunk, 2, "injected fault"))
		}, func(t *testing.T, err error) {
			var pe *graphit.PanicError
			if !errors.As(err, &pe) || pe.Value != "injected fault" || pe.Round != 2 {
				t.Fatalf("expected a round-2 *PanicError, got %v", err)
			}
		}},
		{"stall", sched.ConfigRoundTimeout(30 * time.Millisecond), func(context.CancelFunc) *Injector {
			return New(DelayAt(core.PhaseRelaxChunk, 2, 300*time.Millisecond))
		}, func(t *testing.T, err error) {
			var se *graphit.StuckError
			if !errors.As(err, &se) || se.Reason != core.StuckRoundTimeout || se.Round != 2 || len(se.Recent) == 0 {
				t.Fatalf("expected a round-2 timeout *StuckError with recent rounds, got %v", err)
			}
		}},
		{"cancel", sched.ConfigRoundTimeout(time.Second), func(cancel context.CancelFunc) *Injector {
			return New(CancelAt(core.PhaseRelaxChunk, 2, cancel))
		}, func(t *testing.T, err error) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := algo.SetCoverContext(c.in(cancel).Context(ctx), g, c.sched)
			c.check(t, err)
			if res == nil || res.Stats.Rounds < 1 || res.Stats.Relaxations == 0 {
				t.Fatalf("partial cover or Stats lost: %+v", res)
			}
			again, err := algo.SetCover(g, sched.ConfigNumWorkers(1))
			if err != nil {
				t.Fatalf("run after the fault failed: %v", err)
			}
			if again.NumChosen != want.NumChosen || again.Stats != want.Stats {
				t.Fatalf("post-fault run chose %d sets (%v), want %d (%v)", again.NumChosen, again.Stats, want.NumChosen, want.Stats)
			}
		})
	}
}

// TestApproxContainment covers the approximate-ordering engine: a contained
// panic joins all workers and returns a *PanicError naming the relax phase
// (the whole drain is one engine round), and a fresh run on the same pool
// afterwards reaches the exact min fixpoint.
func TestApproxContainment(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := ssspGraph(t)
	want := (strategyCase{
		name: "lazy",
		sched: graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("lazy").
			ConfigApplyPriorityUpdateDelta(4),
	}).baseline(t, g, nil)
	cfg, err := graphit.DefaultSchedule().Config()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fail", func(t *testing.T) {
		op, _ := ssspOp(g, 1)
		op.Cfg = cfg
		in := New(PanicAt(core.PhaseApproxBatch, 2, "injected fault"))
		st, err := op.RunApproxContext(in.Context(context.Background()))
		var pe *graphit.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("expected *PanicError, got %v", err)
		}
		if pe.Phase != core.PhaseRelax {
			t.Fatalf("PanicError.Phase = %q", pe.Phase)
		}
		_ = st // partial counters; approx commits per batch, so no floor to assert

		op2, prio2 := ssspOp(g, 1)
		op2.Cfg = cfg
		if _, err := op2.RunApproxContext(context.Background()); err != nil {
			t.Fatalf("approx run after contained panic failed: %v", err)
		}
		samePrio(t, want, prio2, "post-fault approx rerun")
	})
}
