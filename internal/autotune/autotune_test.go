package autotune

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphit/internal/core"
)

// synthetic cost model: lazy is bad, eager_with_fusion with delta near 2^8
// is optimal — the tuner must find the basin.
func syntheticMeasure(_ context.Context, cfg core.Config) (time.Duration, error) {
	cost := 100.0
	switch cfg.Strategy {
	case core.EagerWithFusion:
		cost -= 40
	case core.EagerNoFusion:
		cost -= 25
	case core.Lazy:
		cost -= 5
	}
	// Parabolic delta response around 2^8.
	exp := 0
	for d := cfg.Delta; d > 1; d >>= 1 {
		exp++
	}
	diff := float64(exp - 8)
	cost += diff * diff
	return time.Duration(cost * float64(time.Millisecond)), nil
}

func TestTuneFindsBasin(t *testing.T) {
	res, err := Tune(context.Background(), DefaultSpace(), syntheticMeasure, Options{MaxTrials: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Strategy != core.EagerWithFusion {
		t.Errorf("best strategy = %v", res.Best.Strategy)
	}
	if res.Best.Delta < 1<<5 || res.Best.Delta > 1<<11 {
		t.Errorf("best delta = %d, want near 2^8", res.Best.Delta)
	}
	if len(res.Trials) == 0 || len(res.Trials) > 40 {
		t.Errorf("trials = %d", len(res.Trials))
	}
	// Trials are sorted best-first.
	for i := 1; i < len(res.Trials); i++ {
		a, b := res.Trials[i-1], res.Trials[i]
		if a.Err == nil && b.Err == nil && a.Cost > b.Cost {
			t.Fatal("trials not sorted by cost")
		}
	}
}

func TestTuneDeterministicPerSeed(t *testing.T) {
	a, err := Tune(context.Background(), DefaultSpace(), syntheticMeasure, Options{MaxTrials: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(context.Background(), DefaultSpace(), syntheticMeasure, Options{MaxTrials: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best {
		t.Errorf("same seed, different winners: %v vs %v", a.Best, b.Best)
	}
}

func TestTuneSkipsFailingCandidates(t *testing.T) {
	measure := func(_ context.Context, cfg core.Config) (time.Duration, error) {
		if cfg.Strategy != core.Lazy {
			return 0, fmt.Errorf("unsupported")
		}
		return time.Millisecond, nil
	}
	res, err := Tune(context.Background(), DefaultSpace(), measure, Options{MaxTrials: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Strategy != core.Lazy {
		t.Errorf("best = %v, want the only working strategy", res.Best.Strategy)
	}
}

func TestTuneAllFailing(t *testing.T) {
	measure := func(context.Context, core.Config) (time.Duration, error) {
		return 0, fmt.Errorf("nope")
	}
	if _, err := Tune(context.Background(), DefaultSpace(), measure, Options{MaxTrials: 10, Seed: 3}); err == nil {
		t.Fatal("expected an error when every candidate fails")
	}
}

func TestTuneRespectsBudget(t *testing.T) {
	calls := 0
	measure := func(context.Context, core.Config) (time.Duration, error) {
		calls++
		time.Sleep(2 * time.Millisecond)
		return time.Millisecond, nil
	}
	_, err := Tune(context.Background(), DefaultSpace(), measure, Options{MaxTrials: 1000, Budget: 20 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if calls > 100 {
		t.Errorf("budget ignored: %d measurements", calls)
	}
}

func TestTuneCancellation(t *testing.T) {
	// Pre-canceled context with no successful trial: the context's error
	// comes back, not the "no candidate succeeded" one.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Tune(pre, DefaultSpace(), syntheticMeasure, Options{MaxTrials: 40, Seed: 6}); err != context.Canceled {
		t.Fatalf("pre-canceled Tune: err = %v, want context.Canceled", err)
	}

	// Cancel after a few successful trials: Tune stops early but still
	// reports the best candidate found so far.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	measure := func(ctx context.Context, cfg core.Config) (time.Duration, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		return syntheticMeasure(ctx, cfg)
	}
	res, err := Tune(ctx, DefaultSpace(), measure, Options{MaxTrials: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if calls > 4 {
		t.Errorf("cancellation ignored: %d measurements", calls)
	}
	if len(res.Trials) == 0 {
		t.Error("no trials recorded before cancellation")
	}
}

func TestConstantSumGating(t *testing.T) {
	space := DefaultSpace()
	space.AllowConstantSum = true
	sawCS := false
	measure := func(_ context.Context, cfg core.Config) (time.Duration, error) {
		if cfg.Strategy == core.LazyConstantSum {
			sawCS = true
			return time.Millisecond, nil
		}
		return 10 * time.Millisecond, nil
	}
	res, err := Tune(context.Background(), space, measure, Options{MaxTrials: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sawCS {
		t.Error("constant-sum strategy never tried despite being allowed")
	}
	if res.Best.Strategy != core.LazyConstantSum {
		t.Errorf("best = %v", res.Best.Strategy)
	}
}

// TestTuneSurvivesPanickingMeasure: a Measure that panics on part of the
// space is contained — the faulted trials are recorded with a *PanicError
// and skipped, and the search still ranks the surviving candidates.
func TestTuneSurvivesPanickingMeasure(t *testing.T) {
	measure := func(ctx context.Context, cfg core.Config) (time.Duration, error) {
		if cfg.Strategy == core.Lazy {
			panic("measure fault")
		}
		return syntheticMeasure(ctx, cfg)
	}
	res, err := Tune(context.Background(), DefaultSpace(), measure, Options{MaxTrials: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Strategy == core.Lazy {
		t.Fatalf("panicking candidate won: %v", res.Best)
	}
	var faulted int
	for _, tr := range res.Trials {
		var pe *core.PanicError
		if errors.As(tr.Err, &pe) {
			faulted++
			if pe.Value != "measure fault" {
				t.Fatalf("unexpected panic value %v", pe.Value)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no faulted trial was recorded")
	}
}
