// Package server is graphd's HTTP codec over the transport-agnostic query
// pipeline (internal/qexec). Everything substantive — admission, budgets,
// caching, coalescing, breaker routing, shielded execution, fault fallback
// — lives in the pipeline; this package only decodes JSON queries, calls
// Pipeline.Do, and maps typed Outcomes to HTTP status codes. The one piece
// of serving state it owns is the drain flag behind /readyz: shutdown flips
// readiness first (so load balancers stop routing), then delegates the
// actual drain — event-driven in-flight wait, kill-at-round-barrier, grace
// period — to Pipeline.Close.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"graphit"
	"graphit/internal/core"
	"graphit/internal/livegraph"
	"graphit/internal/obs"
	"graphit/internal/qexec"
	"graphit/internal/wal"
)

// Config parameterizes a Server. It mirrors qexec.Config field for field
// (zero values take the same documented defaults) so that operators
// configure one surface; the zero-valued cache/coalesce knobs leave those
// stages off.
type Config struct {
	// Graphs are the named graphs loaded at startup; queries reference them
	// by name. The map is read-only after New.
	Graphs map[string]*graphit.Graph
	// MaxConcurrent / QueueDepth bound the pipeline's admission stage.
	MaxConcurrent int
	QueueDepth    int
	// Workers is the per-run engine worker count (0 = engine default).
	Workers int
	// DefaultBudget / MaxBudget clamp the per-query wall-clock budget.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// RoundTimeout / StuckRounds arm the engine watchdogs for every query.
	RoundTimeout time.Duration
	StuckRounds  int
	// BreakerThreshold / BreakerCooldown parameterize the per-key breakers.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainGrace bounds the extra wait for runs cancelled at the drain
	// deadline to unwind.
	DrainGrace time.Duration
	// CacheEntries / CacheTTL size the pipeline's result cache (0 entries
	// disables it); Coalesce enables singleflight run sharing.
	CacheEntries int
	CacheTTL     time.Duration
	Coalesce     bool
	// BatchWindow / BatchMaxLanes parameterize the batch-coalescing stage:
	// concurrent lazy-strategy queries that differ only in source collect
	// for BatchWindow and execute as one multi-source engine run (0
	// disables the stage); BatchMaxLanes caps a run's lane count.
	BatchWindow   time.Duration
	BatchMaxLanes int
	// MaxVertices caps the per-request vertices selection.
	MaxVertices int
	// Metrics enables GET /metrics (Prometheus text format) backed by the
	// pipeline's counters and per-stage latency histograms plus the
	// engine's per-(algo, strategy, graph) round histograms. Disabled, the
	// endpoint 404s and the pipeline hot path records nothing.
	Metrics bool
	// TraceRing retains the last N per-query structured traces, served at
	// GET /debug/queries; 0 disables both.
	TraceRing int
	// Mutable enables POST /update. Read-only servers still wrap their
	// graphs in live handles (queries pin epoch snapshots either way) but
	// reject mutation batches with 403.
	Mutable bool
	// MaxBatchOps caps the ops of one /update batch (0 = livegraph default).
	MaxBatchOps int
	// DataDir, when set on a Mutable server, makes every mutable graph
	// durable: each gets a WAL + checkpoint store under DataDir/<name>,
	// New recovers it (checkpoint load + replay) before serving, and
	// POST /update acks only after the batch is durable under WALSync.
	// Empty DataDir keeps PR 8's in-memory behavior; read-only servers
	// (-mutable=false) never touch the durability path at all.
	DataDir string
	// WALSync is the fsync policy for acked mutations (default SyncAlways).
	WALSync wal.SyncMode
	// WALSyncEvery is the background fsync period for wal.SyncInterval.
	WALSyncEvery time.Duration
	// WALSegmentBytes overrides the WAL segment rotation threshold
	// (0 = wal default; tests use tiny segments to exercise rotation).
	WALSegmentBytes int64
	// CheckpointOps is how many applied ops trigger a checkpoint
	// (0 = livegraph default).
	CheckpointOps int
	// WALFaultHook, when non-nil, fires at the wal.Phase* checkpoints of
	// every graph's store — the seam recovery drills use to inject fsync,
	// rotate, and checkpoint faults.
	WALFaultHook core.FaultHook
	// BaseContext, if set, wraps every query's context before execution —
	// the seam tests use to install fault injectors.
	BaseContext func(context.Context) context.Context
}

// Server is the query service. Construct with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	pipe     *qexec.Pipeline
	lives    map[string]*livegraph.Live // server-owned; closed after the pipeline drains
	reg      *obs.Registry              // nil: metrics disabled
	mux      *http.ServeMux
	draining atomic.Bool
	recovery map[string]livegraph.RecoverInfo // per-graph boot recovery (durable graphs only)
}

// New builds a Server over cfg.
func New(cfg Config) (*Server, error) {
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("server: no graphs configured")
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	// The server owns the live handles (not the pipeline) so that /update
	// can reach them directly and Shutdown can sequence their close after
	// the query drain.
	lives := make(map[string]*livegraph.Live, len(cfg.Graphs))
	closeLives := func() {
		for _, l := range lives {
			l.Close()
		}
	}
	recovery := make(map[string]livegraph.RecoverInfo)
	for name, g := range cfg.Graphs {
		lcfg := livegraph.Config{
			MaxBatchOps:   cfg.MaxBatchOps,
			CheckpointOps: cfg.CheckpointOps,
			Metrics:       reg,
		}
		// Durability is opt-in twice over: the server must be mutable AND
		// have a data dir, and the graph itself must accept mutations.
		// Read-only serving paths take zero durability overhead.
		if cfg.Mutable && cfg.DataDir != "" && !g.Symmetric() {
			store, err := wal.Open(filepath.Join(cfg.DataDir, name), wal.Options{
				Sync:         cfg.WALSync,
				SyncEvery:    cfg.WALSyncEvery,
				SegmentBytes: cfg.WALSegmentBytes,
				Name:         name,
				Metrics:      reg,
				FaultHook:    cfg.WALFaultHook,
			})
			if err != nil {
				closeLives()
				return nil, fmt.Errorf("server: opening wal for %q: %w", name, err)
			}
			live, info, err := livegraph.Recover(name, g, store, lcfg)
			if err != nil {
				_ = store.Close()
				closeLives()
				return nil, fmt.Errorf("server: recovering %q: %w", name, err)
			}
			lives[name] = live
			recovery[name] = info
			continue
		}
		lives[name] = livegraph.New(name, g, lcfg)
	}
	pipe, err := qexec.New(qexec.Config{
		Live:             lives,
		MaxConcurrent:    cfg.MaxConcurrent,
		QueueDepth:       cfg.QueueDepth,
		Workers:          cfg.Workers,
		DefaultBudget:    cfg.DefaultBudget,
		MaxBudget:        cfg.MaxBudget,
		RoundTimeout:     cfg.RoundTimeout,
		StuckRounds:      cfg.StuckRounds,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		DrainGrace:       cfg.DrainGrace,
		CacheEntries:     cfg.CacheEntries,
		CacheTTL:         cfg.CacheTTL,
		Coalesce:         cfg.Coalesce,
		BatchWindow:      cfg.BatchWindow,
		BatchMaxLanes:    cfg.BatchMaxLanes,
		MaxVertices:      cfg.MaxVertices,
		Metrics:          reg,
		TraceRing:        cfg.TraceRing,
		BaseContext:      cfg.BaseContext,
	})
	if err != nil {
		for _, l := range lives {
			l.Close()
		}
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{cfg: cfg, pipe: pipe, lives: lives, reg: reg, recovery: recovery}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	return s, nil
}

// handleMetrics serves the Prometheus text exposition. The registry is
// scraped live: counters and histograms are read lock-free, and the gauges
// (in-flight, queued, breaker states) are evaluated at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.reg == nil {
		http.Error(w, "metrics disabled (start with -metrics)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = s.reg.WriteText(w)
}

// DebugQueries is the /debug/queries document: the most recent per-query
// structured traces, newest first.
type DebugQueries struct {
	Enabled bool               `json:"enabled"`
	Queries []qexec.QueryTrace `json:"queries"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.TraceRing <= 0 {
		writeJSON(w, 200, DebugQueries{Enabled: false, Queries: []qexec.QueryTrace{}})
		return
	}
	qs := s.pipe.Traces()
	if qs == nil {
		qs = []qexec.QueryTrace{}
	}
	writeJSON(w, 200, DebugQueries{Enabled: true, Queries: qs})
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handleHealthz: liveness — the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: readiness — flips to 503 the moment a drain begins, so a
// load balancer stops routing before admission starts rejecting.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// Status is the /statusz document: the pipeline's per-stage counters plus
// the serving-level drain flag and graph inventory.
type Status struct {
	Draining  bool                             `json:"draining"`
	Mutable   bool                             `json:"mutable"`
	Graphs    map[string]int                   `json:"graphs"` // name -> vertex count
	Live      []livegraph.Status               `json:"live_graphs"`
	Recovery  map[string]livegraph.RecoverInfo `json:"recovery,omitempty"` // durable graphs: boot recovery outcome
	Admission qexec.AdmissionStatus            `json:"admission"`
	Breakers  []qexec.BreakerStatus            `json:"breakers"`
	Cache     qexec.CacheStatus                `json:"cache"`
	Coalesce  qexec.CoalesceStatus             `json:"coalesce"`
	Batch     qexec.BatchStatus                `json:"batch"`
	Runs      int64                            `json:"runs"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	ps := s.pipe.Status()
	st := Status{
		Draining:  s.draining.Load(),
		Mutable:   s.cfg.Mutable,
		Graphs:    make(map[string]int, len(s.cfg.Graphs)),
		Live:      ps.Graphs,
		Admission: ps.Admission,
		Breakers:  ps.Breakers,
		Cache:     ps.Cache,
		Coalesce:  ps.Coalesce,
		Batch:     ps.Batch,
		Runs:      ps.Runs,
	}
	if len(s.recovery) > 0 {
		st.Recovery = s.recovery
	}
	for name, g := range s.cfg.Graphs {
		st.Graphs[name] = g.NumVertices()
	}
	writeJSON(w, 200, st)
}

// retryBase estimates when shed load should come back: one default budget
// is the expected time for the queue to turn over, floored at 1s.
func (s *Server) retryBase() int64 {
	budget := s.cfg.DefaultBudget
	if budget <= 0 {
		budget = 2 * time.Second // the pipeline's default
	}
	sec := int64(budget / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// retryAfter renders a Retry-After value drawn uniformly from [base, 2*base]
// seconds. The jitter matters under load: every rejected client gets the
// same header, and an un-jittered value re-synchronizes them into a retry
// stampede that re-fills the queue the moment it drains. math/rand/v2's
// global generator is goroutine-safe, so concurrent rejections need no lock.
func (s *Server) retryAfter() string {
	base := s.retryBase()
	return strconv.FormatInt(base+rand.Int64N(base+1), 10)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, &Response{Error: qexec.ErrDraining.Error()})
		return
	}
	var q Query
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&q); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{Error: "bad request body: " + err.Error()})
		return
	}
	start := time.Now()
	out := s.pipe.Do(r.Context(), q.request())
	resp := newResponse(out)
	resp.ElapsedMS = time.Since(start).Milliseconds()
	status := httpStatus(out.Code)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfter())
	}
	writeJSON(w, status, resp)
}

// InFlight returns the number of queries currently executing (post-
// admission). Exposed for drain tests.
func (s *Server) InFlight() int { return s.pipe.InFlight() }

// Shutdown gracefully drains the server: readiness flips immediately, then
// the pipeline stops admitting, waits (event-driven) for in-flight runs
// under ctx's deadline, and cancels stragglers at their next engine
// checkpoint with a bounded grace. Shutdown is idempotent; a Server that failed to drain is
// still memory-safe, only late.
// Live handles close after the drain: a query admitted before the flip may
// still need to pin a snapshot, and closing a Live only releases its owner
// reference — snapshots pinned by stragglers stay valid until released.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pipe.Close(ctx)
	for _, l := range s.lives {
		l.Close()
	}
	return err
}

// RecoveringHandler is the handler graphd serves while New is still
// recovering durable graphs (checkpoint load + WAL replay): liveness
// answers ok, readiness and everything else answer 503, so load
// balancers hold traffic without declaring the process dead. graphd
// binds its listener with this handler immediately and atomically swaps
// in the real one when recovery completes.
func RecoveringHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, &Response{Error: "recovering: replaying mutation log"})
	})
	return mux
}

// Recovery returns each durable graph's boot-recovery outcome.
func (s *Server) Recovery() map[string]livegraph.RecoverInfo { return s.recovery }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
