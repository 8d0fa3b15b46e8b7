package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphit/internal/bucket"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// stuckSrc hands out the same bucket forever — the defective bucketSource
// the no-progress detector exists to diagnose.
type stuckSrc struct {
	bid      int64
	frontier []uint32
}

func (s *stuckSrc) next() (int64, []uint32) { return s.bid, s.frontier }
func (s *stuckSrc) update(ids []uint32) int { return 0 }
func (s *stuckSrc) finish(st *Stats)        {}

// inertTrav relaxes nothing and never aborts.
type inertTrav struct{}

func (inertTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool) {
	return nil, false
}

func TestStuckNoProgressDetector(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	o := &Ordered{Cfg: Config{Delta: 1, StuckRounds: 3}}
	e := &engine{
		o:    o,
		src:  &stuckSrc{bid: 7, frontier: []uint32{1, 2, 3}},
		push: inertTrav{},
		ups:  []*Updater{{o: o}},
		ctl:  &runCtl{},
	}
	var st Stats
	err := e.run(context.Background(), NopTracer{}, false, &st)
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StuckError, got %v", err)
	}
	if se.Reason != StuckNoProgress {
		t.Fatalf("Reason = %q, want %q", se.Reason, StuckNoProgress)
	}
	if se.Bucket != 7 || se.Frontier != 3 {
		t.Fatalf("StuckError context wrong: %+v", se)
	}
	// Round 1 establishes the bucket; rounds 2-4 are the three zero-progress
	// repetitions that trip StuckRounds=3.
	if st.Rounds != 4 {
		t.Fatalf("detector fired after %d rounds, want 4", st.Rounds)
	}
	if len(se.Recent) == 0 {
		t.Fatal("StuckError.Recent empty")
	}
}

// TestRoundDeadline: the run control's stop question lets a round run
// until its deadline and records a timeout once the round is past it —
// judged by the asking checkpoint itself, with no goroutine behind it.
func TestRoundDeadline(t *testing.T) {
	ctl := &runCtl{}
	defer ctl.arm(context.Background(), time.Hour)()
	ctl.beginRound(1)
	if ctl.stopped() || ctl.aborted() != abortNone {
		t.Fatal("a round an hour from its deadline was stopped")
	}

	ctl = &runCtl{}
	defer ctl.arm(context.Background(), time.Millisecond)()
	ctl.beginRound(1)
	time.Sleep(5 * time.Millisecond)
	if ctl.aborted() != abortNone {
		t.Fatal("the deadline was judged with no checkpoint asking")
	}
	if !ctl.stopped() || ctl.aborted() != abortTimeout {
		t.Fatalf("a round past its deadline: stopped with reason %d, want abortTimeout", ctl.aborted())
	}
	if d := ctl.elapsed(); d < 5*time.Millisecond {
		t.Fatalf("elapsed %v, want at least the 5ms the round ran", d)
	}
}

// TestRoundDeadlineConvertsCancellation: an armed run control turns its
// context's cancellation into a mid-round abort with no checkpoint asking,
// with or without a deadline; once disarmed, it leaves cancellation to the
// round barriers.
func TestRoundDeadlineConvertsCancellation(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Hour} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctl := &runCtl{}
		disarm := ctl.arm(ctx, timeout)
		defer disarm()
		cancel()
		deadline := time.Now().Add(2 * time.Second)
		for ctl.aborted() != abortCancel {
			if time.Now().After(deadline) {
				t.Fatalf("timeout %v: cancellation never reached the abort flag", timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, timeout := range []time.Duration{0, time.Hour} {
		ctx, cancel := context.WithCancel(context.Background())
		ctl := &runCtl{}
		ctl.arm(ctx, timeout)()
		cancel()
		time.Sleep(10 * time.Millisecond)
		if ctl.aborted() != abortNone {
			t.Fatalf("timeout %v: a cancellation after disarm set reason %d", timeout, ctl.aborted())
		}
	}
}

// TestRunStartsNoGoroutine: a run under RoundTimeout starts no goroutine of
// its own — not an engine run at one worker, and not a two-group lane-kernel
// run at two. The count inside a round's relax phase equals the count
// before the run, once a warm-up run has pooled the executor.
func TestRunStartsNoGoroutine(t *testing.T) {
	g := lineGraph(t, 256)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.RoundTimeout = time.Hour
	for _, c := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"engine_w1", func(ctx context.Context) error {
			cfg := cfg
			cfg.Workers = 1
			op, _ := ssspOp(g, 0, cfg)
			_, err := op.RunContext(ctx)
			return err
		}},
		{"lanes2_w2", func(ctx context.Context) error {
			cfg := cfg
			cfg.Workers = 2
			mo, _ := multiOp(g, []uint32{0, 128}, cfg)
			_, err := mo.RunContext(ctx)
			return err
		}},
	} {
		var during atomic.Int64
		ctx := WithFaultHook(context.Background(), func(phase string, round int64, worker int) {
			if phase == PhaseRelaxChunk {
				during.CompareAndSwap(0, int64(runtime.NumGoroutine()))
			}
		})
		if err := c.run(ctx); err != nil {
			t.Fatalf("%s: warm-up run: %v", c.name, err)
		}
		during.Store(0)
		before := runtime.NumGoroutine()
		if err := c.run(ctx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := during.Load(); got != int64(before) {
			t.Errorf("%s: %d goroutines during a round, %d before the run", c.name, got, before)
		}
	}
}

// TestManualPoisoned verifies the step-wise mode's containment: a panicking
// EdgeFunc returns a *PanicError, and the queue refuses later rounds with
// the same error while staying queryable.
func TestManualPoisoned(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := lineGraph(t, 16)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	op, _ := ssspOp(g, 0, cfg)
	m, err := NewManual(op)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// First round applies cleanly.
	if err := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err != nil {
		t.Fatal(err)
	}
	boom := func(s, d uint32, w int32, u *Updater) { panic("user fault") }
	err = m.ApplyUpdatePriority(m.DequeueReadySet(), boom)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %v", err)
	}
	if pe.Value != "user fault" || pe.Phase != PhaseRelax {
		t.Fatalf("unexpected PanicError: %+v", pe)
	}
	// Poisoned: the same error comes back, and Err exposes it.
	if err2 := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err2 != err {
		t.Fatalf("poisoned queue returned %v, want the original fault", err2)
	}
	if m.Err() != err {
		t.Fatalf("Err() = %v", m.Err())
	}
	// Queries stay valid.
	if m.Stats().Rounds < 2 {
		t.Fatalf("Stats lost: %+v", m.Stats())
	}
}

// TestPushPanicStopsSiblings: at two workers, an operator that panics on its
// first call stops the sibling at its next chunk boundary in every worker
// body that defers the run control's containment — eager and lazy push (no
// fusion tail after it), a lazy pull chunk, a pass chunk and the
// approximate drain's batch. The run returns a *PanicError with the work
// done well below the frontier, and the executor then runs the next job
// cleanly. Every call after the panicking one sleeps 1 ms, so finishing the
// frontier would take the sibling over a minute: the bound does not depend
// on how long the panicking worker is descheduled.
func TestPushPanicStopsSiblings(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	const n = 1 << 16
	g := lineGraph(t, n)
	// The clean run after each fault is on a short line: a pull round sweeps
	// every vertex to advance one hop.
	small := lineGraph(t, 1<<10)
	arms := []struct {
		name   string
		s      Strategy
		dir    Direction
		passes bool
		approx bool
	}{
		{name: "eager_with_fusion push", s: EagerWithFusion, dir: SparsePush},
		{name: "lazy push", s: Lazy, dir: SparsePush},
		{name: "lazy pull", s: Lazy, dir: DensePull},
		{name: "passes", s: Lazy, dir: SparsePush, passes: true},
		{name: "approx", s: Lazy, dir: SparsePush, approx: true},
	}
	for _, a := range arms {
		cfg := DefaultConfig()
		cfg.Strategy, cfg.Direction = a.s, a.dir
		cfg.Workers = 2
		run := (*Ordered).Run
		if a.approx {
			run = (*Ordered).RunApprox
		}
		op, prio := ssspOp(g, 0, cfg)
		for v := range prio {
			prio[v] = 0 // one bucket holding every vertex
		}
		op.Sources = nil
		var fired atomic.Bool
		var calls atomic.Int64
		enter := func() {
			calls.Add(1)
			if fired.CompareAndSwap(false, true) {
				panic("first call")
			}
			time.Sleep(time.Millisecond)
		}
		if a.passes {
			op.Apply = nil
			op.Passes = []VertexPass{func(vs []uint32, _ int, _ *Updater) int64 {
				for range vs {
					enter()
				}
				return int64(len(vs))
			}}
		} else {
			op.Apply = func(src, dst uint32, w int32, u *Updater) {
				enter()
				u.UpdatePriorityMin(dst, u.Priority(src)+int64(w))
			}
		}
		st, err := run(op)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "first call" {
			t.Fatalf("%s: expected the operator's *PanicError, got %v", a.name, err)
		}
		// A pass round counts its whole frontier as processed up front, so
		// only the calls bound it.
		if !a.passes && st.Processed >= n/4 {
			t.Errorf("%s: %d of %d frontier vertices processed after the first one panicked", a.name, st.Processed, n)
		}
		if c := calls.Load(); c >= n/4 {
			t.Errorf("%s: operator entered %d times over a %d-vertex frontier after the first call panicked", a.name, c, n)
		}
		next, dist := ssspOp(small, 0, cfg)
		if _, err := run(next); err != nil {
			t.Fatalf("%s: next run: %v", a.name, err)
		}
		for v, d := range dist {
			if d != int64(v) {
				t.Fatalf("%s: next run dist[%d] = %d", a.name, v, d)
			}
		}
	}
}

// TestPanicErrorRoundInFirstRound pins the Round numbering: a fault in the
// very first next_bucket extraction reports round 1.
func TestPanicErrorPhases(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := lineGraph(t, 32)
	for _, phase := range []string{PhaseNext, PhaseUpdate} {
		cfg := DefaultConfig()
		cfg.Strategy = Lazy
		op, _ := ssspOp(g, 0, cfg)
		hooked := WithFaultHook(context.Background(), func(p string, round int64, worker int) {
			if p == phase && round == 1 {
				panic("early fault")
			}
		})
		_, err := op.RunContext(hooked)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: expected *PanicError, got %v", phase, err)
		}
		if pe.Phase != phase || pe.Round != 1 {
			t.Fatalf("%s: got phase %q round %d", phase, pe.Phase, pe.Round)
		}
	}
}

// TestStuckErrorMessage keeps the diagnostic strings stable enough to grep.
func TestFaultErrorMessages(t *testing.T) {
	pe := &PanicError{Phase: PhaseRelax, Round: 4, Value: "boom"}
	if msg := pe.Error(); !strings.Contains(msg, "relax") || !strings.Contains(msg, "round 4") {
		t.Errorf("PanicError message %q", msg)
	}
	se := &StuckError{Reason: StuckRoundTimeout, Round: 9, Bucket: 2, Priority: 2, Frontier: 11, Elapsed: time.Second}
	if msg := se.Error(); !strings.Contains(msg, StuckRoundTimeout) || !strings.Contains(msg, "round 9") {
		t.Errorf("StuckError message %q", msg)
	}
	if bucket.NullBkt == 0 {
		t.Fatal("sentinel changed") // guards the stuckSrc test's bucket ids
	}
}
