package qexec

import (
	"sync"
	"sync/atomic"
	"time"

	"graphit"
	"graphit/internal/histogram"
	"graphit/internal/obs"
)

// Histogram bounds. Latencies span 10µs to ~84s (doubling), covering a
// sub-millisecond cache probe and a worst-case 30s budget with headroom;
// sizes (frontier vertices, relaxations) span 1 to ~10⁹ (×4).
var (
	latencyBounds = histogram.ExpBounds(10e-6, 2, 24)
	sizeBounds    = histogram.ExpBounds(1, 4, 16)
)

// pipeMetrics holds the pipeline's pre-registered series. A nil *pipeMetrics
// means "metrics disabled": every method is nil-safe and returns before
// touching a field, so the disabled hot path costs one predicted branch and
// zero allocations (gated by TestMetricsDisabledHotPathAllocs).
type pipeMetrics struct {
	reg *obs.Registry

	stagePlan     *obs.Histogram
	stageCache    *obs.Histogram
	stageCoalesce *obs.Histogram
	stageBatch    *obs.Histogram
	stageQueue    *obs.Histogram
	stageRun      *obs.Histogram
	stageDurable  *obs.Histogram

	outcomes  [len(codeNames)]*obs.Counter
	cacheHits *obs.Counter
	coalesced *obs.Counter
	fallbacks *obs.Counter
	shed      *obs.Counter

	batchWindows *obs.Counter
	batchRuns    *obs.Counter
	batchLanes   *obs.Counter
	batchSolo    *obs.Counter

	faultMu sync.Mutex
	faults  map[string]*obs.Counter // by fault kind, lazily registered

	breakerKeys    sync.Map     // breaker key -> struct{}{}: gauge decided (registered or dropped)
	breakerGauges  atomic.Int64 // gauges actually registered
	breakerDropped *obs.Counter
}

// maxBreakerGaugeKeys caps the qexec_breaker_state label cardinality. The
// (algo, strategy) axes are both validated enums today, so the organic
// cardinality is small — the cap is the backstop that keeps a future axis
// (or a validation bug) from letting a hostile query stream mint unbounded
// metric series. Keys beyond the cap still get full breaker *behavior*;
// they just aren't individually exported, and the drop is counted.
const maxBreakerGaugeKeys = 64

const (
	helpStage = "Wall time of one pipeline stage for one request (stage label: plan, cache, coalesce_wait, batch_wait, queue_wait, run, durable)."
	helpRound = "Engine round wall time by (algo, strategy, graph)."
)

// newPipeMetrics registers the pipeline's fixed series on reg. The gauges
// are exposition-time callbacks into p's live structures, so they need no
// recording calls anywhere.
func newPipeMetrics(reg *obs.Registry, p *Pipeline) *pipeMetrics {
	m := &pipeMetrics{reg: reg, faults: make(map[string]*obs.Counter)}
	for _, s := range [...]struct {
		h     **obs.Histogram
		stage string
	}{
		{&m.stagePlan, "plan"},
		{&m.stageCache, "cache"},
		{&m.stageCoalesce, "coalesce_wait"},
		{&m.stageBatch, "batch_wait"},
		{&m.stageQueue, "queue_wait"},
		{&m.stageRun, "run"},
		{&m.stageDurable, "durable"},
	} {
		*s.h = reg.Histogram("qexec_stage_duration_seconds", helpStage, latencyBounds, obs.L("stage", s.stage))
	}
	for c := range m.outcomes {
		m.outcomes[c] = reg.Counter("qexec_outcomes_total",
			"Requests by final outcome code.", obs.L("code", Code(c).String()))
	}
	m.cacheHits = reg.Counter("qexec_cache_hits_total", "Requests served from the result cache.")
	m.coalesced = reg.Counter("qexec_coalesced_total", "Requests served by joining another request's engine run.")
	m.fallbacks = reg.Counter("qexec_fallbacks_total", "Requests answered by the safe fallback schedule.")
	m.shed = reg.Counter("qexec_shed_total", "Requests shed by admission control (queue full).")
	m.batchWindows = reg.Counter("qexec_batch_windows_total", "Batch admission windows opened.")
	m.batchRuns = reg.Counter("qexec_batch_runs_total", "Multi-source engine runs executed by the batch stage (windows that closed with ≥2 lanes).")
	m.batchLanes = reg.Counter("qexec_batch_lanes_total", "Query lanes carried by batched multi-source runs.")
	m.batchSolo = reg.Counter("qexec_batch_solo_total", "Batch windows that closed with a single occupant and ran as a one-lane run.")
	m.breakerDropped = reg.Counter("qexec_breaker_gauges_dropped_total",
		"Breaker keys whose state gauge was not exported because the per-key cardinality cap was reached.")
	reg.GaugeFunc("qexec_inflight", "Queries currently executing (post-admission).",
		func() float64 { return float64(p.InFlight()) })
	reg.GaugeFunc("qexec_queued", "Requests waiting for a run slot.",
		func() float64 { return float64(p.adm.queued.Load()) })
	return m
}

func (m *pipeMetrics) observePlan(d time.Duration) {
	if m == nil {
		return
	}
	m.stagePlan.Observe(d.Seconds())
}

func (m *pipeMetrics) observeCache(d time.Duration) {
	if m == nil {
		return
	}
	m.stageCache.Observe(d.Seconds())
}

func (m *pipeMetrics) observeCoalesceWait(d time.Duration) {
	if m == nil {
		return
	}
	m.stageCoalesce.Observe(d.Seconds())
}

func (m *pipeMetrics) observeBatchWait(d time.Duration) {
	if m == nil {
		return
	}
	m.stageBatch.Observe(d.Seconds())
}

// observeBatch folds one sealed batch window into the counters: every window
// counts, and it lands on the multi-run/lanes side or the solo side by its
// final occupancy.
func (m *pipeMetrics) observeBatch(lanes int) {
	if m == nil {
		return
	}
	m.batchWindows.Inc()
	if lanes > 1 {
		m.batchRuns.Inc()
		m.batchLanes.Add(int64(lanes))
	} else {
		m.batchSolo.Inc()
	}
}

func (m *pipeMetrics) observeQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.stageQueue.Observe(d.Seconds())
}

func (m *pipeMetrics) observeRun(d time.Duration) {
	if m == nil {
		return
	}
	m.stageRun.Observe(d.Seconds())
}

func (m *pipeMetrics) observeDurableWait(d time.Duration) {
	if m == nil {
		return
	}
	m.stageDurable.Observe(d.Seconds())
}

// observeOutcome folds one finished request's markers into the counters —
// the single recording point every Do return path funnels through.
func (m *pipeMetrics) observeOutcome(out *Outcome) {
	if m == nil {
		return
	}
	c := out.Code
	if c < 0 || int(c) >= len(m.outcomes) {
		c = CodeFault
	}
	m.outcomes[c].Inc()
	if out.Cached {
		m.cacheHits.Inc()
	}
	if out.Coalesced {
		m.coalesced.Inc()
	}
	if out.Fallback {
		m.fallbacks.Inc()
	}
	if out.Code == CodeShed {
		m.shed.Inc()
	}
	if out.FaultKind != "" {
		m.fault(out.FaultKind).Inc()
	}
}

// fault returns the per-kind fault counter, registering it on first use.
// Faults are rare, so the small mutex-guarded map is not a hot path.
func (m *pipeMetrics) fault(kind string) *obs.Counter {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	c, ok := m.faults[kind]
	if !ok {
		c = m.reg.Counter("qexec_faults_total",
			"Contained engine faults on primary runs, by kind.", obs.L("kind", kind))
		m.faults[kind] = c
	}
	return c
}

// ensureBreakerGauge registers the exposition-time breaker-state gauge for
// key on its first routed request (0=closed, 1=open, 2=half_open). At most
// maxBreakerGaugeKeys gauges are ever registered; keys beyond the cap are
// recorded in qexec_breaker_gauges_dropped_total instead.
func (m *pipeMetrics) ensureBreakerGauge(key string, b *Breakers) {
	if m == nil {
		return
	}
	if _, seen := m.breakerKeys.LoadOrStore(key, struct{}{}); seen {
		return
	}
	if m.breakerGauges.Add(1) > maxBreakerGaugeKeys {
		m.breakerGauges.Add(-1)
		m.breakerDropped.Inc()
		return
	}
	m.reg.GaugeFunc("qexec_breaker_state",
		"Circuit breaker state by (algo, strategy) key: 0=closed, 1=open, 2=half_open.",
		func() float64 { return float64(b.State(key)) }, obs.L("key", key))
}

// maxTraceEvents caps the per-query round events kept for /debug/queries; a
// long run records its first maxTraceEvents rounds plus the total count.
const maxTraceEvents = 64

// runTracer is the per-run core.Tracer the pipeline installs (via the
// WithTracer context seam) when metrics or the trace ring are enabled. It
// folds every RoundEvent into the per-(algo, strategy, graph) histograms
// and optionally retains a capped event list for the query trace. One
// instance observes both the primary run and (after a fault) the fallback
// run: RunStart re-resolves the strategy-labelled series, so each run's
// rounds land under the schedule that actually executed them.
type runTracer struct {
	m     *pipeMetrics // nil: engine metrics off (trace ring only)
	algo  string
	graph string
	keep  bool // retain events for the trace ring

	start    time.Time
	strategy string
	roundH   *obs.Histogram
	frontH   *obs.Histogram
	relaxH   *obs.Histogram
	runH     *obs.Histogram

	events    []graphit.RoundEvent
	rounds    int64
	truncated bool
}

func newRunTracer(m *pipeMetrics, algoName, graphName string, keep bool) *runTracer {
	return &runTracer{m: m, algo: algoName, graph: graphName, keep: keep}
}

func (t *runTracer) RunStart(info graphit.RunInfo) {
	t.start = time.Now()
	t.strategy = info.Strategy
	if t.m == nil {
		return
	}
	labels := []obs.Label{obs.L("algo", t.algo), obs.L("graph", t.graph), obs.L("strategy", info.Strategy)}
	t.roundH = t.m.reg.Histogram("engine_round_duration_seconds", helpRound, latencyBounds, labels...)
	t.frontH = t.m.reg.Histogram("engine_round_frontier_vertices",
		"Vertices dequeued per engine round by (algo, strategy, graph).", sizeBounds, labels...)
	t.relaxH = t.m.reg.Histogram("engine_round_relaxations",
		"Edge relaxations per engine round by (algo, strategy, graph).", sizeBounds, labels...)
	t.runH = t.m.reg.Histogram("engine_run_duration_seconds",
		"Engine run wall time by (algo, strategy, graph).", latencyBounds, labels...)
}

func (t *runTracer) Round(ev graphit.RoundEvent) {
	t.rounds++
	if t.m != nil {
		t.roundH.Observe(ev.Wall.Seconds())
		t.frontH.Observe(float64(ev.Frontier))
		t.relaxH.Observe(float64(ev.Relaxations))
	}
	if t.keep {
		if len(t.events) < maxTraceEvents {
			if t.events == nil {
				t.events = make([]graphit.RoundEvent, 0, maxTraceEvents)
			}
			t.events = append(t.events, ev)
		} else {
			t.truncated = true
		}
	}
}

func (t *runTracer) RunEnd(st graphit.Stats, err error) {
	if t.m == nil {
		return
	}
	t.runH.Observe(time.Since(t.start).Seconds())
	status := "ok"
	if err != nil {
		status = "error"
	}
	t.m.reg.Counter("engine_runs_total", "Engine runs by (algo, strategy, graph) and final status.",
		obs.L("algo", t.algo), obs.L("graph", t.graph), obs.L("strategy", t.strategy),
		obs.L("status", status)).Inc()
}
