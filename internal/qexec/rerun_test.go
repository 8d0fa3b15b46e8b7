package qexec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/faults"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// The rerun tests arm a round watchdog far above a round of the 16x16 test
// graph and far below the injected stall.
const (
	rerunTimeout = 100 * time.Millisecond
	rerunStall   = 500 * time.Millisecond
)

// TestFallbackRerunAnswersFaultedRequest is the request-level fault
// contract: a contained fault ends the primary run with its typed error,
// and route reruns the request once, from scratch, on the fallback
// schedule. A transient (one-shot) fault is absorbed: the answer equals the
// sequential reference, marked Fallback with the primary's FaultKind. A
// fault that also hits the rerun — a persistent (Repeat) trigger, or a
// second trigger that fires only in the rerun — ends in CodeFault with the
// fallback's typed error, its FaultKind and its partial stats.
func TestFallbackRerunAnswersFaultedRequest(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := testGraph(t)
	ids := allVertices(g)
	panicAt := faults.PanicAt(core.PhaseRelaxChunk, 2, "injected fault")
	stallAt := faults.DelayAt(core.PhaseRelax, 2, rerunStall)
	repeat := func(tr faults.Trigger) faults.Trigger { tr.Repeat = true; return tr }
	rerunOnly := func(tr faults.Trigger) faults.Trigger { tr.Occurrence = 2; return tr }
	type rerunCase struct {
		name, algo, strategy string
		trigs                []faults.Trigger
		code                 Code
		kind                 string
	}
	var cases []rerunCase
	// The lazy sssp, wbfs and ppsp primaries run on the lane kernel; their
	// fallback runs on the engine.
	for _, pr := range []struct{ name, algo, strategy string }{
		{"eager_with_fusion", "sssp", "eager_with_fusion"},
		{"eager_no_fusion", "sssp", "eager_no_fusion"},
		{"lazy", "sssp", "lazy"},
		{"wbfs_lazy", "wbfs", "lazy"},
		{"ppsp_lazy", "ppsp", "lazy"},
		{"lazy_constant_sum", "kcore", "lazy_constant_sum"},
	} {
		cases = append(cases,
			rerunCase{pr.name + "/panic", pr.algo, pr.strategy, []faults.Trigger{panicAt}, CodeOK, graphit.FaultKindPanic},
			rerunCase{pr.name + "/stall", pr.algo, pr.strategy, []faults.Trigger{stallAt}, CodeOK, graphit.FaultKindStuck})
	}
	cases = append(cases,
		rerunCase{"persistent/panic", "sssp", "lazy", []faults.Trigger{repeat(panicAt)}, CodeFault, graphit.FaultKindPanic},
		rerunCase{"persistent/stall", "sssp", "lazy", []faults.Trigger{repeat(stallAt)}, CodeFault, graphit.FaultKindStuck},
		// The primary panics; the stall's second round-2 relax phase is the
		// rerun's, so FaultKind must name the fallback's fault, not the
		// primary's.
		rerunCase{"panic_then_stall", "sssp", "eager_with_fusion", []faults.Trigger{panicAt, rerunOnly(stallAt)}, CodeFault, graphit.FaultKindStuck},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := algo.Lookup(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			var dst uint32 // a pair query's far corner keeps it running past round 2
			if sp.NeedsDst {
				dst = uint32(g.NumVertices() - 1)
			}
			ref, err := sp.Ref(g, 0, dst)
			if err != nil {
				t.Fatal(err)
			}
			p := newTestPipeline(t, Config{
				Graphs:        map[string]*graphit.Graph{"road": g},
				Workers:       2,
				RoundTimeout:  rerunTimeout,
				DefaultBudget: 30 * time.Second,
				MaxBudget:     time.Minute,
				BaseContext:   faults.New(tc.trigs...).Context,
			})
			defer mustClose(t, p)

			out := p.Do(context.Background(), Request{Algo: tc.algo, Graph: "road", Src: 0, Dst: dst, Strategy: tc.strategy, Vertices: ids})
			if out.Code != tc.code || !out.Fallback || out.FaultKind != tc.kind {
				t.Fatalf("code %s (%v) Fallback=%v FaultKind=%q, want %s after a fallback rerun, FaultKind %q",
					out.Code, out.Err, out.Fallback, out.FaultKind, tc.code, tc.kind)
			}
			if st := p.Status().Breakers; len(st) != 1 || st[0].Faults != 1 || st[0].Fallbacks != 1 {
				t.Fatalf("breakers = %+v, want one key fed one fault and one fallback", st)
			}
			if tc.code == CodeOK && sp.Kind == algo.KindPair {
				// Only the pair distance is exact: an early-terminated run
				// leaves the rest of its vector partly settled.
				want := algo.Summarize(sp, ref, dst, nil).PairDist
				if got := out.Summary.PairDist; got == nil || want == nil || *got != *want {
					t.Fatalf("pair distance %v, want %v", got, want)
				}
				return
			}
			if tc.code == CodeOK {
				wantSummaryValues(t, out, ids, ref.Values)
				return
			}
			var pe *graphit.PanicError
			var se *graphit.StuckError
			if tc.kind == graphit.FaultKindPanic && !errors.As(out.Err, &pe) ||
				tc.kind == graphit.FaultKindStuck && !errors.As(out.Err, &se) {
				t.Fatalf("err %T (%v), want the fallback's %s error", out.Err, out.Err, tc.kind)
			}
			if out.Stats == nil || out.Stats.Rounds < 1 {
				t.Fatalf("stats %+v, want the fallback's partial counters", out.Stats)
			}
		})
	}
}

// TestOpenBreakerReportsFallbackFault: behind an open breaker the fallback
// runs alone, and a fault in it is the one Outcome.FaultKind reports.
func TestOpenBreakerReportsFallbackFault(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	in := faults.New(faults.Trigger{Phase: core.PhaseRelax, Round: 2, Repeat: true, Delay: rerunStall})
	p := newTestPipeline(t, Config{
		Workers:          2,
		RoundTimeout:     rerunTimeout,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		BaseContext:      in.Context,
	})
	defer mustClose(t, p)
	req := Request{Algo: "sssp", Graph: "road", Src: 0, Strategy: "eager_with_fusion"}

	if out := p.Do(context.Background(), req); out.Code != CodeFault || out.Breaker != "open" {
		t.Fatalf("first request: code %s breaker %q, want a fault that trips the breaker", out.Code, out.Breaker)
	}
	before := len(in.Events())
	out := p.Do(context.Background(), req)
	if got := len(in.Events()) - before; got != 1 {
		t.Fatalf("%d runs stalled for the second request, want only the fallback", got)
	}
	var se *graphit.StuckError
	if out.Code != CodeFault || !out.Fallback || out.FaultKind != graphit.FaultKindStuck || !errors.As(out.Err, &se) {
		t.Fatalf("code %s (%v) Fallback=%v FaultKind=%q, want the lone fallback's stall", out.Code, out.Err, out.Fallback, out.FaultKind)
	}
}

// TestCancelDuringFallbackRerun: the primary faults, then the request's own
// context is cancelled at the fallback run's first relax chunk. The request
// ends promptly as a budget or client-gone outcome — not a fault, not a
// hang — and leaks no goroutine.
func TestCancelDuringFallbackRerun(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := testGraph(t)
	for _, pr := range []struct{ algo, strategy string }{
		{"sssp", "eager_with_fusion"},
		{"sssp", "eager_no_fusion"},
		{"sssp", "lazy"},
		{"kcore", "lazy_constant_sum"},
	} {
		t.Run(pr.strategy, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// One worker, so no sibling of the panicking chunk can reach a
			// checkpoint after the panic: the first relax chunk after it is
			// the fallback's.
			var faulted, cancelled atomic.Bool
			hook := func(phase string, round int64, _ int) {
				if phase != core.PhaseRelaxChunk {
					return
				}
				if round == 2 && faulted.CompareAndSwap(false, true) {
					panic("injected fault")
				}
				if faulted.Load() && cancelled.CompareAndSwap(false, true) {
					cancel()
				}
			}
			p := newTestPipeline(t, Config{
				Graphs:        map[string]*graphit.Graph{"road": g},
				Workers:       1,
				DefaultBudget: 30 * time.Second,
				MaxBudget:     time.Minute,
				BaseContext: func(ctx context.Context) context.Context {
					return core.WithFaultHook(ctx, hook)
				},
			})
			defer mustClose(t, p)

			start := time.Now()
			out := p.Do(ctx, Request{Algo: pr.algo, Graph: "road", Src: 0, Strategy: pr.strategy})
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("cancellation during the fallback rerun took %v", elapsed)
			}
			if !cancelled.Load() {
				t.Fatal("the fallback rerun never reached a relax chunk")
			}
			if out.Code != CodeBudget && out.Code != CodeClientGone {
				t.Fatalf("code %s err %v, want budget or client_gone", out.Code, out.Err)
			}
			if !out.Fallback || out.FaultKind != graphit.FaultKindPanic {
				t.Fatalf("Fallback=%v FaultKind=%q, want the primary's panic and a fallback attempt", out.Fallback, out.FaultKind)
			}
		})
	}
}
