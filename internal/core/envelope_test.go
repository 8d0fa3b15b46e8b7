package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"graphit/internal/gen"
	"graphit/internal/graph"
)

// rmat15 is the directed, weighted R-MAT graph at scale 15, edge factor 12.
func rmat15(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(15, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cancelAt returns a context whose fault hook cancels it at the first
// checkpoint of phase at round, then pauses a millisecond: the pause lets
// the cancellation reach the run control, as a cancel from another
// goroutine would while the round goes on.
func cancelAt(phase string, round int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	return WithFaultHook(ctx, func(p string, r int64, worker int) {
		if p == phase && r == round && ctx.Err() == nil {
			cancel()
			time.Sleep(time.Millisecond)
		}
	})
}

// TestApproxRunsInsideEnvelope: an approximate run gets the envelope every
// engine run gets. Its whole drain is one traced round between RunStart and
// RunEnd, and a round deadline stops it in that round with a *StuckError.
func TestApproxRunsInsideEnvelope(t *testing.T) {
	g := rmat15(t)
	cfg := DefaultConfig()
	cfg.Workers, cfg.Delta = 1, 16

	op, _ := ssspOp(g, 0, cfg)
	tr := &MemTracer{}
	op.Trace = tr
	st, err := op.RunApprox()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Info.Frontier != 1 || len(tr.Events) != 1 || st.Rounds != 1 {
		t.Fatalf("traced frontier %d, %d round events, %d rounds; want one round from one source",
			tr.Info.Frontier, len(tr.Events), st.Rounds)
	}
	if tr.Final != st || tr.Err != nil {
		t.Fatalf("RunEnd saw %v (err %v), the run returned %v", tr.Final, tr.Err, st)
	}
	if ev := tr.Events[0]; ev.Processed != st.Processed || ev.Relaxations != st.Relaxations {
		t.Fatalf("round event %+v does not carry the run's work %v", ev, st)
	}

	cfg.RoundTimeout = time.Nanosecond
	op, _ = ssspOp(g, 0, cfg)
	st, err = op.RunApprox()
	var se *StuckError
	if !errors.As(err, &se) || se.Reason != StuckRoundTimeout || se.Round != 1 {
		t.Fatalf("err %v, want a round-1 round-timeout *StuckError", err)
	}
	if st.Processed >= tr.Final.Processed {
		t.Fatalf("timed-out run processed %d of %d", st.Processed, tr.Final.Processed)
	}
}

// TestApproxRunLabelledApprox: an approximate run's run_start record names
// it "approx", not the eager strategy its schedule carries, while a strict
// run under the same schedule keeps the schedule's name.
func TestApproxRunLabelledApprox(t *testing.T) {
	g := rmat15(t)
	cfg := DefaultConfig()
	cfg.Workers, cfg.Delta = 1, 16
	for _, tc := range []struct {
		run  func(*Ordered) (Stats, error)
		want string
	}{
		{(*Ordered).RunApprox, `"strategy":"approx"`},
		{(*Ordered).Run, `"strategy":"eager_with_fusion"`},
	} {
		var buf bytes.Buffer
		op, _ := ssspOp(g, 0, cfg)
		op.Trace = NewJSONTracer(&buf)
		if _, err := tc.run(op); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(buf.String(), "\n")
		if !strings.Contains(first, `"event":"run_start"`) || !strings.Contains(first, tc.want) {
			t.Errorf("run_start record %s, want %s", first, tc.want)
		}
	}
}

// TestCancelStopsDrainMidRound: with no RoundTimeout, cancellation stops a
// drain inside its round instead of at the next barrier — the lane kernel's
// one-round drain (∆ above every distance) at its next abort poll, and the
// approximate drain at its next batch.
func TestCancelStopsDrainMidRound(t *testing.T) {
	g := rmat15(t)

	t.Run("lane_kernel", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Strategy, cfg.Delta = Lazy, 1<<30
		mo, _ := multiOp(g, []uint32{0}, cfg)
		clean, err := mo.Run()
		if err != nil || clean.Rounds != 1 {
			t.Fatalf("clean run: %d rounds, err %v; want one round", clean.Rounds, err)
		}
		mo, _ = multiOp(g, []uint32{0}, cfg)
		ms, err := mo.RunContext(cancelAt(PhaseRelaxChunk, 1))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if ms.Processed >= clean.Processed {
			t.Fatalf("cancelled drain processed %d of %d ids", ms.Processed, clean.Processed)
		}
	})

	t.Run("approx", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Workers, cfg.Delta = 1, 16
		op, _ := ssspOp(g, 0, cfg)
		clean, err := op.RunApprox()
		if err != nil {
			t.Fatal(err)
		}
		op, _ = ssspOp(g, 0, cfg)
		st, err := op.RunApproxContext(cancelAt(PhaseApproxBatch, 3))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if st.Processed == 0 || st.Processed >= clean.Processed {
			t.Fatalf("cancelled drain processed %d of %d vertices", st.Processed, clean.Processed)
		}
		t.Logf("processed %d of %d", st.Processed, clean.Processed)
	})
}
