package core

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// RunInfo describes one engine run, emitted once before the first round.
type RunInfo struct {
	// Strategy is the schedule's bucket strategy, or "approx" for an
	// approximate-ordering run (RunApproxContext).
	Strategy    string `json:"strategy"`
	Direction   string `json:"direction"`
	Delta       int64  `json:"delta"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int64  `json:"num_edges"`
	// Frontier is the size of the initial active set.
	Frontier int `json:"frontier"`
}

// RoundEvent is one structured per-round trace record: which bucket ran,
// how large the frontier was, what work the round did, and how long it took.
type RoundEvent struct {
	Round    int64 `json:"round"`
	Bucket   int64 `json:"bucket"`
	Priority int64 `json:"priority"`
	// Frontier is the number of vertices dequeued this round.
	Frontier int `json:"frontier"`
	// Updated is the number of vertices whose bucket changed this round
	// (lazy strategies; 0 for eager, whose re-bucketing is thread-local).
	Updated     int   `json:"updated"`
	Relaxations int64 `json:"relaxations"`
	Processed   int64 `json:"processed"`
	// FusedIters counts bucket-fusion inner iterations absorbed into this
	// round (eager_with_fusion only).
	FusedIters int64 `json:"fused_iters"`
	// Pull reports whether the round traversed in-edges (DensePull).
	Pull bool          `json:"pull"`
	Wall time.Duration `json:"wall_ns"`
}

// Tracer observes engine execution with typed events. Implementations must
// be safe for use from a single goroutine (the engine calls them only
// between round barriers, never concurrently).
type Tracer interface {
	// RunStart is called once, after validation, before the first round.
	RunStart(RunInfo)
	// Round is called after every completed round.
	Round(RoundEvent)
	// RunEnd is called once with the final counters; err is non-nil when
	// the run was cancelled or failed.
	RunEnd(Stats, error)
}

// NopTracer is the zero-cost default Tracer.
type NopTracer struct{}

func (NopTracer) RunStart(RunInfo)    {}
func (NopTracer) Round(RoundEvent)    {}
func (NopTracer) RunEnd(Stats, error) {}

// MemTracer records every event in memory, for tests and the autotuner.
type MemTracer struct {
	Info   RunInfo
	Events []RoundEvent
	Final  Stats
	Err    error
}

func (t *MemTracer) RunStart(info RunInfo) {
	t.Info = info
	t.Events = t.Events[:0]
	t.Final = Stats{}
	t.Err = nil
}

func (t *MemTracer) Round(ev RoundEvent) { t.Events = append(t.Events, ev) }

func (t *MemTracer) RunEnd(st Stats, err error) { t.Final, t.Err = st, err }

// JSONTracer writes one JSON object per line per event, distinguished by an
// "event" field ("run_start" | "round" | "run_end") — the format behind
// `cmd/ordered -trace`.
type JSONTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONTracer returns a Tracer emitting JSON lines to w.
func NewJSONTracer(w io.Writer) *JSONTracer {
	return &JSONTracer{enc: json.NewEncoder(w)}
}

func (t *JSONTracer) RunStart(info RunInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc.Encode(struct {
		Event string `json:"event"`
		RunInfo
	}{"run_start", info})
}

func (t *JSONTracer) Round(ev RoundEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc.Encode(struct {
		Event string `json:"event"`
		RoundEvent
	}{"round", ev})
}

func (t *JSONTracer) RunEnd(st Stats, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	t.enc.Encode(struct {
		Event string `json:"event"`
		Stats
		Err string `json:"error,omitempty"`
	}{"run_end", st, msg})
}

// tracerKey carries a Tracer through a context.Context.
type tracerKey struct{}

// WithTracer returns a context carrying t; RunContext picks it up when the
// operator has no explicit Trace set.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the Tracer installed by WithTracer, if any.
func TracerFrom(ctx context.Context) (Tracer, bool) {
	t, ok := ctx.Value(tracerKey{}).(Tracer)
	return t, ok
}
