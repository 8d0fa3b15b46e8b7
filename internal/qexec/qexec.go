// Package qexec is the transport-agnostic query-execution pipeline behind
// graphd (and any future consumer: CLIs, shard coordinators, the
// autotuner). A query passes through explicit stages, each producing or
// refining a typed Outcome — no HTTP types appear anywhere in the package;
// transports are thin codecs over Pipeline.Do:
//
//	Plan   -> validate the request against the algo registry and the
//	          loaded graphs, and resolve it to a canonical, fully-
//	          defaulted Plan (normalized schedule params, clamped
//	          budget, stable cache key).
//	Cache  -> a keyed LRU with TTL over canonical plan keys; a hit is
//	          returned immediately with the Cached marker set.
//	Window -> one keyed window (window.go): a request identical to an
//	          in-flight one attaches to its lane and receives the
//	          completed Outcome (Coalesced; including a fault-triggered
//	          fallback result — never a torn one), and batchable plans
//	          that differ only in source collect for BatchWindow into
//	          one group (Batched). Everything else is a group of one.
//	Admit  -> the bounded run-slot queue sized to the shared executor
//	          pool, one slot per group; overflow is shed fast (CodeShed).
//	Route  -> the per-(algo, strategy) circuit breaker decides primary
//	          vs. known-safe fallback schedule.
//	Run    -> shielded execution — a batchable plan's primary run is
//	          one k-lane lane-kernel run for its group of k ≥ 1, any
//	          other plan's one single-source engine run — then fault
//	          classification, fallback re-routing (per-lane engine
//	          runs), and per-lane result summarization.
//
// The pipeline owns drain semantics too: Close stops admission, waits
// (event-driven, no polling) for in-flight runs, and cancels them at their
// next engine checkpoint once the deadline passes.
package qexec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphit"
	"graphit/internal/livegraph"
	"graphit/internal/obs"
	"graphit/internal/parallel"
)

// minBudget floors the per-query budget: below this a query cannot make a
// round of progress and the deadline only produces noise.
const minBudget = 10 * time.Millisecond

// Config parameterizes a Pipeline. Zero values take the documented
// defaults; the zero-valued cache/coalesce knobs leave both stages off.
type Config struct {
	// Graphs are the named graphs loaded at startup; plans reference them
	// by name. The map is read-only after New. Each graph is wrapped in a
	// livegraph.Live owned (and closed) by the pipeline; use Live instead
	// to share externally owned live graphs.
	Graphs map[string]*graphit.Graph
	// Live are externally owned live graphs served by name. The caller
	// keeps ownership and must Close them after the pipeline drains. When
	// a name appears in both maps, Live wins.
	Live map[string]*livegraph.Live
	// MaxConcurrent bounds concurrently executing runs. Default:
	// min(GOMAXPROCS, parallel.ExecutorPoolCap()) — beyond the executor
	// pool's cap, admitted runs would construct worker pools per call.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot; overflow is shed
	// with CodeShed. Default: 2*MaxConcurrent.
	QueueDepth int
	// Workers is the per-run engine worker count (0 = engine default).
	Workers int
	// DefaultBudget / MaxBudget clamp the per-query wall-clock budget.
	// Defaults: 2s / 30s.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// RoundTimeout arms the engine's per-round watchdog for every query
	// (default 5s; it cannot be disabled — queries are untrusted).
	RoundTimeout time.Duration
	// StuckRounds arms the engine's no-progress detector (default 256).
	StuckRounds int
	// BreakerThreshold consecutive engine faults trip an (algo, strategy)
	// breaker (default 3); BreakerCooldown later it half-opens (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainGrace bounds the extra wait for runs cancelled at the drain
	// deadline to unwind (default 2s).
	DrainGrace time.Duration
	// CacheEntries is the result cache's capacity; 0 disables the cache.
	CacheEntries int
	// CacheTTL is the result cache's entry lifetime (default 1m).
	CacheTTL time.Duration
	// Coalesce lets concurrent identical plans share one engine run: a
	// request attaches to the in-flight lane with its flight key.
	Coalesce bool
	// BatchWindow enables the admission window: lazy-strategy
	// queries that agree on (algo, graph, epoch, schedule, budget) but
	// differ in source collect for this long and execute as one multi-source
	// engine run, each lane cached and answered under its own single-source
	// identity. 0 disables the stage.
	BatchWindow time.Duration
	// BatchMaxLanes caps one batched run's lane count; a window seals early
	// when it fills. Default 8, hard cap graphit.MaxLanes.
	BatchMaxLanes int
	// MaxVertices caps the per-request Vertices selection (each requested
	// vertex is echoed into the summary). Default 4096.
	MaxVertices int
	// Metrics, when non-nil, receives the pipeline's counters, gauges, and
	// per-stage latency histograms plus the engine's per-(algo, strategy,
	// graph) round histograms. nil disables instrumentation entirely; the
	// disabled hot path is allocation-free.
	Metrics *obs.Registry
	// TraceRing retains the last N per-query structured traces (served by
	// graphd at /debug/queries); 0 disables trace retention.
	TraceRing int
	// BaseContext, if set, wraps every run's context before execution —
	// the seam tests use to install fault injectors.
	BaseContext func(context.Context) context.Context
}

func (c *Config) applyDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
		if poolCap := parallel.ExecutorPoolCap(); c.MaxConcurrent > poolCap {
			c.MaxConcurrent = poolCap
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 5 * time.Second
	}
	if c.StuckRounds <= 0 {
		c.StuckRounds = 256
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = time.Minute
	}
	if c.BatchMaxLanes <= 0 {
		c.BatchMaxLanes = 8
	}
	if c.BatchMaxLanes > graphit.MaxLanes {
		c.BatchMaxLanes = graphit.MaxLanes
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 4096
	}
}

// ConfigError reports a Config field New rejected, with the reason.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("qexec: invalid config: %s %s", e.Field, e.Reason)
}

// validate rejects Config values that applyDefaults would otherwise paper
// over into surprising behavior. Notably MaxBudget below minBudget: the
// budget clamp floors at minBudget, so such a maximum is unsatisfiable —
// before this check it silently granted every query a budget above the
// configured ceiling. CacheEntries == 0 stays legal (it disables the cache).
func (c *Config) validate() error {
	type check struct {
		field string
		bad   bool
		why   string
	}
	checks := []check{
		{"MaxConcurrent", c.MaxConcurrent < 0, "must not be negative"},
		{"QueueDepth", c.QueueDepth < 0, "must not be negative"},
		{"DefaultBudget", c.DefaultBudget < 0, "must not be negative"},
		{"MaxBudget", c.MaxBudget < 0, "must not be negative"},
		{"MaxBudget", c.MaxBudget > 0 && c.MaxBudget < minBudget,
			fmt.Sprintf("is below the %v minimum budget (unsatisfiable)", minBudget)},
		{"CacheEntries", c.CacheEntries < 0, "must not be negative"},
		{"CacheTTL", c.CacheTTL < 0, "must not be negative"},
		{"BatchWindow", c.BatchWindow < 0, "must not be negative"},
		{"BatchMaxLanes", c.BatchMaxLanes < 0, "must not be negative"},
		{"MaxVertices", c.MaxVertices < 0, "must not be negative"},
	}
	for _, ck := range checks {
		if ck.bad {
			return &ConfigError{Field: ck.field, Reason: ck.why}
		}
	}
	return nil
}

// Pipeline executes queries. Construct with New; it is safe for concurrent
// use. Call Close to drain.
type Pipeline struct {
	cfg      Config
	live     map[string]*livegraph.Live // every served graph, by name
	ownLive  []*livegraph.Live          // the subset the pipeline must close
	liveOnce sync.Once
	adm      *admission
	breakers *Breakers
	cache    *resultCache // nil: cache stage disabled
	win      *windows
	met      *pipeMetrics // nil: metrics disabled (every method nil-safe)
	ring     *traceRing   // nil: trace retention disabled

	closed atomic.Bool
	runs   atomic.Int64 // engine executions (post-admission route/run entries)

	// killCtx is cancelled when a drain deadline expires: every in-flight
	// run's context is chained to it (context.AfterFunc), forcing the
	// engines to halt at their next checkpoint, mid-round.
	killCtx context.Context
	kill    context.CancelFunc

	// In-flight accounting is event-driven: waiters registered via idle()
	// are woken the moment the count returns to zero, so draining never
	// busy-polls.
	mu       sync.Mutex
	inflight int
	idlers   []chan struct{}
}

// New builds a Pipeline over cfg.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Graphs) == 0 && len(cfg.Live) == 0 {
		return nil, fmt.Errorf("qexec: no graphs configured")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	p := &Pipeline{
		cfg:      cfg,
		live:     make(map[string]*livegraph.Live, len(cfg.Graphs)+len(cfg.Live)),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		breakers: NewBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	// Static graphs get a pipeline-owned Live wrapper so every plan pins an
	// epoch snapshot the same way; the wrapper spawns no goroutines until a
	// mutation actually lands. Externally owned Lives (the graphd path,
	// which wires mutation limits and metrics itself) take precedence.
	for name, g := range cfg.Graphs {
		if _, shadowed := cfg.Live[name]; shadowed {
			continue
		}
		l := livegraph.New(name, g, livegraph.Config{Metrics: cfg.Metrics})
		p.live[name] = l
		p.ownLive = append(p.ownLive, l)
	}
	for name, l := range cfg.Live {
		p.live[name] = l
	}
	if cfg.CacheEntries > 0 {
		p.cache = newResultCache(cfg.CacheEntries, cfg.CacheTTL)
	}
	p.win = newWindows(cfg.Coalesce, cfg.BatchWindow, cfg.BatchMaxLanes)
	if cfg.Metrics != nil {
		p.met = newPipeMetrics(cfg.Metrics, p)
	}
	if cfg.TraceRing > 0 {
		p.ring = newTraceRing(cfg.TraceRing)
	}
	p.killCtx, p.kill = context.WithCancel(context.Background())
	return p, nil
}

// Do executes one request through the full pipeline and always returns a
// non-nil Outcome; transport adapters map Outcome.Code to their own status
// vocabulary. ctx is the caller's context: it bounds queue waits and (for
// a solo run with Coalesce off) execution; a run other requests may depend
// on — any run with Coalesce on, any group of several lanes — is detached
// from any single caller and bounded by the plan budget and the drain kill
// switch instead.
func (p *Pipeline) Do(ctx context.Context, req Request) *Outcome {
	start := time.Now()
	var et execTrace
	out := p.do(ctx, req, &et)
	p.met.observeOutcome(out)
	if p.ring != nil {
		p.ring.add(buildTrace(&req, out, &et, start))
	}
	return out
}

// execTrace accumulates one request's per-stage wall times and (for leaders
// of engine runs) the round events the runTracer retained. It lives on Do's
// stack: when metrics and the trace ring are both disabled it is written but
// never read, at zero heap cost.
type execTrace struct {
	plan, cache, coalesceWait, batchWait, queueWait, run time.Duration

	events    []graphit.RoundEvent
	rounds    int64
	truncated bool
}

// do is Do's body; Do itself only wraps it with outcome metrics and trace
// capture so every return path funnels through one recording point.
func (p *Pipeline) do(ctx context.Context, req Request, et *execTrace) *Outcome {
	if p.closed.Load() {
		return &Outcome{Algo: req.Algo, Graph: req.Graph, Code: CodeDraining, Err: ErrDraining}
	}
	t := time.Now()
	pl, err := p.plan(&req)
	et.plan = time.Since(t)
	p.met.observePlan(et.plan)
	if err != nil {
		code := CodeBadRequest
		if err == ErrDraining {
			code = CodeDraining
		}
		return &Outcome{Algo: req.Algo, Graph: req.Graph, Code: code, Err: err}
	}
	// The plan pinned an epoch snapshot; hold it for the whole request so
	// the graph the engines read stays frozen even if mutation batches land
	// and the compactor swaps bases mid-run.
	defer pl.Snap.Release()
	if p.cache != nil {
		// Seeing a graph at a new epoch means every older-epoch entry for it
		// is dead once no unreclaimed snapshot pins its epoch (the epoch is
		// part of the key, so new plans cannot reach it) — reclaim those now
		// rather than letting dead results ride the LRU until TTL. The pin
		// check is the live graph's own snapshot refcount, so a straggling
		// plan that Acquired just before the mutation is covered from the
		// instant of the Acquire — there is no registration gap for the
		// sweep to race through.
		p.cache.noteEpoch(pl.GraphName, pl.Epoch, p.live[pl.GraphName].EpochPinned)
		t = time.Now()
		out, ok := p.cached(pl)
		et.cache = time.Since(t)
		p.met.observeCache(et.cache)
		if ok {
			return out
		}
	}
	out := p.win.do(ctx, pl, et, func(lanes []*lane, windowed bool) []*Outcome {
		if windowed {
			p.met.observeBatch(len(lanes))
		}
		return p.execute(ctx, lanes, windowed, et)
	})
	if out.Coalesced {
		p.met.observeCoalesceWait(et.coalesceWait)
	}
	if out.Batched {
		p.met.observeBatchWait(et.batchWait)
	}
	return out
}

// Caps on the string metadata one trace may retain. Bad requests echo the
// raw Algo/Graph strings (and error text quoting them) into the ring; a
// hostile stream of megabyte-long names must not turn a 256-entry ring
// into a multi-hundred-megabyte resident set.
const (
	maxTraceField = 128
	maxTraceError = 512
)

// clipTrace bounds one retained string, marking the cut visibly.
func clipTrace(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "…(truncated)"
}

// buildTrace renders one finished request as its ring record.
func buildTrace(req *Request, out *Outcome, et *execTrace, start time.Time) QueryTrace {
	qt := QueryTrace{
		At:         time.Now(),
		Algo:       clipTrace(out.Algo, maxTraceField),
		Graph:      clipTrace(out.Graph, maxTraceField),
		Strategy:   clipTrace(out.Strategy, maxTraceField),
		Epoch:      out.Epoch,
		Src:        req.Src,
		Dst:        req.Dst,
		Code:       out.Code.String(),
		FaultKind:  out.FaultKind,
		Breaker:    out.Breaker,
		Fallback:   out.Fallback,
		Cached:     out.Cached,
		Coalesced:  out.Coalesced,
		Batched:    out.Batched,
		BatchLanes: out.BatchLanes,
		ElapsedUS:  time.Since(start).Microseconds(),
		Stages: StageTimings{
			PlanUS:         et.plan.Microseconds(),
			CacheUS:        et.cache.Microseconds(),
			CoalesceWaitUS: et.coalesceWait.Microseconds(),
			BatchWaitUS:    et.batchWait.Microseconds(),
			QueueWaitUS:    et.queueWait.Microseconds(),
			RunUS:          et.run.Microseconds(),
		},
		Rounds:    et.rounds,
		Events:    et.events,
		Truncated: et.truncated,
		Stats:     out.Stats,
	}
	if out.Err != nil {
		qt.Error = clipTrace(out.Err.Error(), maxTraceError)
	}
	return qt
}

// Traces returns the retained per-query traces, newest first (empty when
// the trace ring is disabled).
func (p *Pipeline) Traces() []QueryTrace {
	if p.ring == nil {
		return nil
	}
	return p.ring.snapshot()
}

// cached serves pl from the result cache when it holds a fresh entry. The
// breaker field is refreshed at read time so observers see live state.
func (p *Pipeline) cached(pl *Plan) (*Outcome, bool) {
	if p.cache == nil {
		return nil, false
	}
	e, ok := p.cache.get(pl.CacheKey)
	if !ok {
		return nil, false
	}
	out := pl.outcome(CodeOK, nil)
	out.Cached = true
	out.Breaker = p.breakers.State(pl.BreakerKey()).String()
	out.Summary, out.Stats = e.sum, e.stats
	return out, true
}

// execute is the one admit → route → run tail, over a sealed group of k ≥ 1
// lanes; it returns one Outcome per lane. Every lane shares the leader's
// batch key — algorithm, graph, epoch, schedule, budget — so lanes[0]'s plan
// speaks for the group, and its pinned snapshot (held by the leader's
// request through this call) keeps the graph frozen for all of them.
//
// A run others may depend on — Coalesce on, or k > 1 — is detached: cut
// loose from the leader's caller and bounded by the plan budget across both
// the queue wait and the run. A solo run with Coalesce off stays attached:
// the caller's context gates the queue wait and the budget applies after
// admission.
func (p *Pipeline) execute(ctx context.Context, lanes []*lane, windowed bool, et *execTrace) []*Outcome {
	lead := lanes[0].pl
	k := len(lanes)
	outs := make([]*Outcome, k)
	for i, ln := range lanes {
		outs[i] = ln.pl.outcome(CodeOK, nil)
		outs[i].Batched = windowed
		if k > 1 { // a window that closed solo reports zero lanes: nothing was shared
			outs[i].BatchLanes = k
		}
	}
	fail := func(code Code, err error) []*Outcome {
		for _, out := range outs {
			out.Code, out.Err = code, err
		}
		return outs
	}
	detached := p.cfg.Coalesce || k > 1
	if detached {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), lead.Budget)
		defer cancel()
	}

	// Admit: the whole group holds one run slot, or is shed.
	t := time.Now()
	release, err := p.adm.acquire(ctx)
	et.queueWait = time.Since(t)
	p.met.observeQueueWait(et.queueWait)
	switch err {
	case nil:
	case ErrShed:
		return fail(CodeShed, err)
	case ErrDraining:
		return fail(CodeDraining, err)
	default: // ctx ended while queued
		if detached { // the only clock on a detached run is the budget
			return fail(CodeBudget, fmt.Errorf("budget exhausted: %w", err))
		}
		return fail(CodeClientGone, err)
	}
	defer release()

	// Deadline: budget -> context; drain kill -> same context. Exactly one
	// child context is created per path: a detached run's budget deadline
	// was already applied above, so it only needs a cancellable child for
	// the kill switch, while an attached run layers the budget onto the
	// caller's context here. (Creating a WithCancel child unconditionally
	// and overwriting it on one path would leak the first CancelFunc — the
	// abandoned child stays registered on the caller's context.)
	var runCtx context.Context
	var cancel context.CancelFunc
	if detached {
		runCtx, cancel = context.WithCancel(ctx)
	} else {
		runCtx, cancel = context.WithTimeout(ctx, lead.Budget)
	}
	defer cancel()
	stop := context.AfterFunc(p.killCtx, cancel)
	defer stop()
	if p.cfg.BaseContext != nil {
		runCtx = p.cfg.BaseContext(runCtx)
	}

	// Observe the run: the tracer folds round events into the engine
	// histograms and retains a capped event list for the trace ring. It is
	// per-run state (the engine calls Tracers from one goroutine), installed
	// through the WithTracer context seam.
	var rt *runTracer
	if p.met != nil || p.ring != nil {
		rt = newRunTracer(p.met, lead.Spec.Name, lead.GraphName, p.ring != nil)
		runCtx = graphit.WithTracer(runCtx, rt)
		p.met.ensureBreakerGauge(lead.BreakerKey(), p.breakers)
	}

	p.beginRun()
	defer p.endRun()
	p.runs.Add(1)
	t = time.Now()
	p.route(runCtx, lanes, outs)
	et.run = time.Since(t)
	p.met.observeRun(et.run)
	if rt != nil {
		et.events, et.rounds, et.truncated = rt.events, rt.rounds, rt.truncated
	}

	// Cache only clean primary successes, each lane under its own key:
	// fallback answers are correct but caching them would mask breaker
	// recovery, and faults must stay observable.
	if p.cache != nil {
		for i, ln := range lanes {
			if out := outs[i]; out.Code == CodeOK && !out.Fallback {
				p.cache.put(ln.pl.CacheKey, ln.pl.GraphName, ln.pl.Epoch, out.Summary, out.Stats)
			}
		}
	}
	return outs
}

// ObserveDurableWait records how long one mutation waited for its WAL
// group-commit fsync under qexec_stage_duration_seconds{stage="durable"}.
// The durability stage runs in the transport's update path (mutations
// don't flow through Do), so the transport reports its latency here to
// keep all stage timings in one series. Nil-safe when metrics are off.
func (p *Pipeline) ObserveDurableWait(d time.Duration) {
	p.met.observeDurableWait(d)
}

// InFlight returns the number of queries currently executing
// (post-admission). Exposed for drain logic and tests.
func (p *Pipeline) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

func (p *Pipeline) beginRun() {
	p.mu.Lock()
	p.inflight++
	p.mu.Unlock()
}

func (p *Pipeline) endRun() {
	p.mu.Lock()
	p.inflight--
	if p.inflight == 0 {
		for _, ch := range p.idlers {
			close(ch)
		}
		p.idlers = nil
	}
	p.mu.Unlock()
}

// idle returns a channel closed when the in-flight count is (or next
// becomes) zero.
func (p *Pipeline) idle() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch := make(chan struct{})
	if p.inflight == 0 {
		close(ch)
		return ch
	}
	p.idlers = append(p.idlers, ch)
	return ch
}

// Close gracefully drains the pipeline: new and queued requests fail with
// ErrDraining, and in-flight runs are given until ctx's deadline to finish
// — the wait is event-driven on the in-flight count reaching zero, never
// polled. If the deadline passes, every in-flight run's context is
// cancelled (the engines halt at their next checkpoint) and Close waits
// DrainGrace longer before reporting the stragglers. Close is idempotent
// and never corrupts state: a Pipeline that failed to drain is still
// memory-safe, only late.
func (p *Pipeline) Close(ctx context.Context) error {
	p.closed.Store(true)
	p.adm.close()
	// Pipeline-owned live wrappers close once draining starts: in-flight
	// queries keep the snapshots they already pinned (Release works after
	// Close), new plans fail with ErrDraining before reaching Acquire.
	// Externally owned Lives (cfg.Live) belong to the caller.
	defer p.liveOnce.Do(func() {
		for _, l := range p.ownLive {
			l.Close()
		}
	})
	select {
	case <-p.idle():
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel in-flight runs and give them a bounded grace
	// to unwind from their next checkpoint.
	p.kill()
	grace := time.NewTimer(p.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-p.idle():
		return nil
	case <-grace.C:
		return fmt.Errorf("qexec: drain incomplete: %d queries still in flight: %w",
			p.InFlight(), ctx.Err())
	}
}

// Status is the pipeline's externally visible state (all stages).
type Status struct {
	Admission AdmissionStatus `json:"admission"`
	Breakers  []BreakerStatus `json:"breakers"`
	Cache     CacheStatus     `json:"cache"`
	Coalesce  CoalesceStatus  `json:"coalesce"`
	Batch     BatchStatus     `json:"batch"`
	// Runs counts engine executions (post-admission). The gap between
	// admitted requests and runs is exactly the work the cache and
	// coalescer absorbed.
	Runs int64 `json:"runs"`
	// Graphs is the per-graph live state (epoch, overlay, compactions),
	// sorted by name.
	Graphs []livegraph.Status `json:"graphs"`
}

// Live returns the live graph serving name, or nil if the name is unknown.
// Transports use it to route mutation batches.
func (p *Pipeline) Live(name string) *livegraph.Live { return p.live[name] }

// Status snapshots every stage's counters. Breakers are sorted by key.
func (p *Pipeline) Status() Status {
	st := Status{
		Admission: p.adm.status(),
		Breakers:  p.breakers.Snapshot(),
		Runs:      p.runs.Load(),
	}
	sort.Slice(st.Breakers, func(i, j int) bool { return st.Breakers[i].Key < st.Breakers[j].Key })
	for _, l := range p.live {
		st.Graphs = append(st.Graphs, l.Status())
	}
	sort.Slice(st.Graphs, func(i, j int) bool { return st.Graphs[i].Name < st.Graphs[j].Name })
	if p.cache != nil {
		st.Cache = p.cache.status()
	}
	st.Coalesce, st.Batch = p.win.status()
	return st
}
