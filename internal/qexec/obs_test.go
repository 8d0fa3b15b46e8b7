package qexec

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"graphit"
	"graphit/internal/core"
	"graphit/internal/faults"
	"graphit/internal/obs"
)

// TestPipelineMetricsEndToEnd drives real queries through an instrumented
// pipeline and checks every metric family the tentpole promises: per-stage
// latency histograms, outcome counters, cache-hit accounting, per-(algo,
// strategy, graph) engine round histograms, run counters, and the
// exposition-time gauges.
func TestPipelineMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPipeline(t, Config{CacheEntries: 8, Metrics: reg, TraceRing: 8})
	defer p.Close(context.Background())

	req := Request{Algo: "sssp", Graph: "road", Src: 0}
	if out := p.Do(context.Background(), req); out.Code != CodeOK {
		t.Fatalf("query failed: %+v", out)
	}
	if out := p.Do(context.Background(), req); !out.Cached {
		t.Fatalf("second identical query not cached: %+v", out)
	}
	if out := p.Do(context.Background(), Request{Algo: "nope", Graph: "road"}); out.Code != CodeBadRequest {
		t.Fatalf("bad algo got %v, want CodeBadRequest", out.Code)
	}

	if got := reg.Counter("qexec_outcomes_total", "", obs.L("code", "ok")).Value(); got != 2 {
		t.Errorf("outcomes ok: got %d want 2", got)
	}
	if got := reg.Counter("qexec_outcomes_total", "", obs.L("code", "bad_request")).Value(); got != 1 {
		t.Errorf("outcomes bad_request: got %d want 1", got)
	}
	if got := reg.Counter("qexec_cache_hits_total", "").Value(); got != 1 {
		t.Errorf("cache hits: got %d want 1", got)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`qexec_stage_duration_seconds_count{stage="plan"} 3`,
		`qexec_stage_duration_seconds_count{stage="run"} 1`,
		`qexec_stage_duration_seconds_bucket{stage="run",le="+Inf"} 1`,
		`engine_round_duration_seconds_count{algo="sssp",graph="road",strategy="`,
		`engine_round_frontier_vertices_bucket{algo="sssp",graph="road",`,
		`engine_runs_total{algo="sssp",graph="road",status="ok",strategy="`,
		`engine_run_duration_seconds_count{algo="sssp",graph="road",strategy="`,
		`qexec_breaker_state{key="sssp/`,
		"qexec_inflight 0",
		"qexec_queued 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The engine round histogram must have folded at least one real round.
	snap := findRoundCount(t, reg, p)
	if snap == 0 {
		t.Errorf("engine round histogram recorded no rounds")
	}
}

// TestFaultsCounterByKind: a primary run that panics under an injector is
// counted once in qexec_faults_total under kind "panic"; the fallback rerun
// that answers the request adds nothing to it.
func TestFaultsCounterByKind(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPipeline(t, Config{
		Workers:     2,
		Metrics:     reg,
		BaseContext: faults.New(faults.PanicAt(core.PhaseRelaxChunk, 2, "injected fault")).Context,
	})
	defer mustClose(t, p)

	out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: 0, Strategy: "eager_with_fusion"})
	if out.Code != CodeOK || !out.Fallback || out.FaultKind != graphit.FaultKindPanic {
		t.Fatalf("code %s (%v) Fallback=%v FaultKind=%q, want an answer from the fallback after a panic",
			out.Code, out.Err, out.Fallback, out.FaultKind)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if want := `qexec_faults_total{kind="panic"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
}

// findRoundCount resolves the sssp round histogram for whatever canonical
// default strategy the pipeline planned, and returns its observation count.
func findRoundCount(t *testing.T, reg *obs.Registry, p *Pipeline) uint64 {
	t.Helper()
	pl, err := p.plan(&Request{Algo: "sssp", Graph: "road", Src: 0})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	h := reg.Histogram("engine_round_duration_seconds", "", latencyBounds,
		obs.L("algo", "sssp"), obs.L("graph", "road"), obs.L("strategy", pl.Strategy))
	return h.Snapshot().Count
}

// TestTraceRing checks /debug/queries' backing store: traces come back
// newest first, carry stage timings and round events for leaders, are
// marked for cache hits, and the ring caps at its capacity.
func TestTraceRing(t *testing.T) {
	p := newTestPipeline(t, Config{CacheEntries: 8, TraceRing: 4})
	defer p.Close(context.Background())

	if out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: 1}); out.Code != CodeOK {
		t.Fatalf("query failed: %+v", out)
	}
	if out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: 1}); !out.Cached {
		t.Fatalf("second query not cached: %+v", out)
	}

	traces := p.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	hit, run := traces[0], traces[1] // newest first
	if !hit.Cached || hit.Code != "ok" {
		t.Errorf("newest trace should be the cache hit: %+v", hit)
	}
	if run.Cached || run.Rounds == 0 || len(run.Events) == 0 {
		t.Errorf("leader trace missing round events: rounds=%d events=%d cached=%v",
			run.Rounds, len(run.Events), run.Cached)
	}
	if run.Stages.RunUS <= 0 || run.Stages.PlanUS < 0 {
		t.Errorf("leader trace missing stage timings: %+v", run.Stages)
	}
	if run.Algo != "sssp" || run.Graph != "road" || run.Src != 1 {
		t.Errorf("trace plan echo wrong: %+v", run)
	}

	// Overflow: the ring keeps only the most recent 4.
	for src := uint32(2); src < 8; src++ {
		p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: src})
	}
	traces = p.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring returned %d traces, want capacity 4", len(traces))
	}
	if traces[0].Src != 7 {
		t.Errorf("newest trace src=%d, want 7", traces[0].Src)
	}
}

// TestMetricsDisabledHotPathAllocs gates the disabled-metrics contract:
// with Metrics nil and TraceRing 0, every instrumentation point the
// pipeline's hot path crosses — the five stage observers, the outcome
// recorder, the breaker-gauge hook — is a nil-receiver no-op that performs
// zero allocations.
func TestMetricsDisabledHotPathAllocs(t *testing.T) {
	var m *pipeMetrics // exactly what a disabled pipeline carries
	out := &Outcome{Code: CodeOK, Cached: true, Fallback: true, FaultKind: "panic"}
	var b *Breakers
	if n := testing.AllocsPerRun(1000, func() {
		m.observePlan(time.Microsecond)
		m.observeCache(time.Microsecond)
		m.observeCoalesceWait(time.Microsecond)
		m.observeQueueWait(time.Microsecond)
		m.observeRun(time.Microsecond)
		m.observeOutcome(out)
		m.ensureBreakerGauge("sssp/lazy", b)
	}); n != 0 {
		t.Fatalf("disabled-metrics instrumentation allocates %v per request, want 0", n)
	}
}

// TestMetricsConcurrentQueries runs instrumented queries in parallel; CI
// executes this package under -race, so this doubles as the registry/tracer
// concurrency drill on the real pipeline.
func TestMetricsConcurrentQueries(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPipeline(t, Config{Metrics: reg, TraceRing: 16, Coalesce: true})
	defer p.Close(context.Background())

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: uint32(i % 3)})
			if out.Code != CodeOK {
				t.Errorf("query %d failed: %+v", i, out)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, code := range []string{"ok", "client_gone"} {
		total += reg.Counter("qexec_outcomes_total", "", obs.L("code", code)).Value()
	}
	if total != n {
		t.Errorf("outcome counters sum to %d, want %d", total, n)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "engine_runs_total") {
		t.Errorf("no engine runs recorded")
	}
}

// TestRunTracerFallbackRelabel pins the two-run case: when a fault re-routes
// to the fallback schedule, the same tracer instance observes both runs and
// RunStart re-resolves the strategy label, so each run's rounds land under
// the schedule that executed them.
func TestRunTracerFallbackRelabel(t *testing.T) {
	reg := obs.NewRegistry()
	m := &pipeMetrics{reg: reg}
	rt := newRunTracer(m, "sssp", "road", true)

	rt.RunStart(graphit.RunInfo{Strategy: "eager_with_fusion"})
	rt.Round(graphit.RoundEvent{Round: 0, Frontier: 10, Relaxations: 40, Wall: time.Millisecond})
	rt.RunEnd(graphit.Stats{}, context.Canceled)

	rt.RunStart(graphit.RunInfo{Strategy: "lazy"})
	rt.Round(graphit.RoundEvent{Round: 0, Frontier: 10, Relaxations: 40, Wall: time.Millisecond})
	rt.Round(graphit.RoundEvent{Round: 1, Frontier: 4, Relaxations: 9, Wall: time.Millisecond})
	rt.RunEnd(graphit.Stats{}, nil)

	for strategy, want := range map[string]uint64{"eager_with_fusion": 1, "lazy": 2} {
		h := reg.Histogram("engine_round_duration_seconds", "", latencyBounds,
			obs.L("algo", "sssp"), obs.L("graph", "road"), obs.L("strategy", strategy))
		if got := h.Snapshot().Count; got != want {
			t.Errorf("strategy %q rounds: got %d want %d", strategy, got, want)
		}
	}
	if got := reg.Counter("engine_runs_total", "", obs.L("algo", "sssp"), obs.L("graph", "road"),
		obs.L("strategy", "eager_with_fusion"), obs.L("status", "error")).Value(); got != 1 {
		t.Errorf("errored eager run count: got %d want 1", got)
	}
	if rt.rounds != 3 || len(rt.events) != 3 {
		t.Errorf("tracer kept %d/%d events, want 3/3", rt.rounds, len(rt.events))
	}
}
