package graphit

import (
	"context"

	"graphit/internal/bucket"
	"graphit/internal/core"
)

// Order is the processing order of a priority queue.
type Order = bucket.Order

// Priority-queue orderings: lower_first processes the smallest priority
// first (SSSP family, k-core); higher_first the largest (SetCover).
const (
	LowerFirst  Order = bucket.Increasing
	HigherFirst Order = bucket.Decreasing
)

// Queue is the per-worker handle through which user-defined edge functions
// perform priority updates — the runtime face of the paper's Table 1
// operators (updatePriorityMin / updatePriorityMax / updatePrioritySum,
// getCurrentPriority, finishedVertex).
type Queue = core.Updater

// EdgeFunc is a user-defined edge update function, the library analogue of
// the DSL's updateEdge UDF (paper Figure 3, lines 7–10).
type EdgeFunc = core.EdgeFunc

// VertexPass is one per-round pass over the frontier's vertices: set
// Ordered.Passes to a list of them instead of an edge function (SetCover).
type VertexPass = core.VertexPass

// StopFunc is a customized stop condition checked once per round with the
// priority of the bucket about to be processed.
type StopFunc = core.StopFunc

// Ordered is a fully-configured ordered edgeset-apply operator — the
// runtime object the GraphIt compiler generates for
// `while(pq.finished()==false){ ... applyUpdatePriority(f) }` loops.
// Populate its fields and call Run, or use the helpers in package
// graphit/algo.
type Ordered = core.Ordered

// MinPlus is the native min-plus relaxation prio[dst] = min(prio[dst],
// prio[src]+w): set Ordered.Relax to it instead of writing that UDF as an
// Apply closure, and every engine runs it without a call per edge. It needs
// a weighted graph and lower_first order.
const MinPlus = core.MinPlus

// RunOrdered executes op under schedule s and returns execution counters.
func RunOrdered(op *Ordered, s Schedule) (Stats, error) {
	return RunOrderedContext(context.Background(), op, s)
}

// RunOrderedContext executes op under schedule s and context ctx. The
// engine checks ctx cooperatively at every round barrier and, mid-round, at
// every chunk boundary of a traversal: a cancelled or expired context halts
// the run within one chunk and returns the partial Stats accumulated so far
// together with ctx.Err().
func RunOrderedContext(ctx context.Context, op *Ordered, s Schedule) (Stats, error) {
	cfg, err := s.Config()
	if err != nil {
		return Stats{}, err
	}
	op.Cfg = cfg
	return op.RunContext(ctx)
}

// MultiOrdered executes k single-source ∆-stepping operators ("lanes") as one
// shared round loop over one bucket structure: the lane kernel, a serial
// min-plus engine that drains each bucket lane by lane with an in-round FIFO
// cascade for same-bucket wins. Each lane's priority vector converges to
// exactly the result an independent single-source run would produce. Lazy
// strategy with lower_first order only; the schedule's worker count,
// direction, grain and deduplication are hints a multi-source run ignores.
// See core.MultiOrdered.
type MultiOrdered = core.MultiOrdered

// MultiStats reports one multi-source run: shared round-loop counters plus
// the per-lane relaxation/processed split (see MultiStats.Lane).
type MultiStats = core.MultiStats

// LaneStats is the per-lane slice of a multi-source run's counters.
type LaneStats = core.LaneStats

// MaxLanes bounds the lane count of one multi-source run.
const MaxLanes = core.MaxLanes

// MaxLanesFor returns the most lanes one multi-source run over an n-vertex
// graph may carry: MaxLanes, or fewer on graphs large enough that the run's
// (lane, vertex) ids would overflow 32 bits.
func MaxLanesFor(n int) int { return core.MaxLanesFor(n) }

// RunOrderedMulti executes the multi-source operator op under schedule s.
func RunOrderedMulti(op *MultiOrdered, s Schedule) (MultiStats, error) {
	return RunOrderedMultiContext(context.Background(), op, s)
}

// RunOrderedMultiContext is RunOrderedMulti under a context, with the same
// cooperative cancellation contract as RunOrderedContext.
func RunOrderedMultiContext(ctx context.Context, op *MultiOrdered, s Schedule) (MultiStats, error) {
	cfg, err := s.Config()
	if err != nil {
		return MultiStats{}, err
	}
	op.Cfg = cfg
	return op.RunContext(ctx)
}

// Tracer observes engine execution with structured per-round events
// (bucket id, frontier size, relaxations, fused iterations, wall time).
// Attach one via the Ordered.Trace field or WithTracer.
type Tracer = core.Tracer

// RunInfo is the run-level trace record emitted before the first round.
type RunInfo = core.RunInfo

// RoundEvent is one per-round trace record.
type RoundEvent = core.RoundEvent

// NopTracer is the zero-cost default Tracer.
type NopTracer = core.NopTracer

// MemTracer records trace events in memory (tests, the autotuner).
type MemTracer = core.MemTracer

// NewJSONTracer returns a Tracer writing one JSON object per line per event
// — the format behind `cmd/ordered -trace`.
var NewJSONTracer = core.NewJSONTracer

// WithTracer returns a context carrying t; runs started with that context
// (RunOrderedContext, the algo Context entry points) report to it unless the
// operator sets an explicit Trace.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	return core.WithTracer(ctx, t)
}

// TracerFrom extracts the Tracer installed by WithTracer, if any.
func TracerFrom(ctx context.Context) (Tracer, bool) { return core.TracerFrom(ctx) }

// PanicError reports a panic recovered from an engine phase (typically a
// user edge function). The run halts with partial Stats, the process and
// worker pools stay intact, and the error carries the phase, round, panic
// value, and the panicking goroutine's stack. Test with errors.As.
type PanicError = core.PanicError

// StuckError reports a run aborted by the round watchdog
// (ConfigRoundTimeout) or the no-progress detector (ConfigStuckRounds),
// with recent per-round trace events attached for diagnosis.
type StuckError = core.StuckError

// Fault kinds returned by ClassifyFault — the serving layer's taxonomy of
// run outcomes (see graphit/internal/server for the consumer).
const (
	FaultKindNone     = core.FaultKindNone
	FaultKindPanic    = core.FaultKindPanic
	FaultKindStuck    = core.FaultKindStuck
	FaultKindCanceled = core.FaultKindCanceled
)

// ClassifyFault maps an error returned by the run entry points (or any
// wrapper preserving the error chain) to its fault kind: FaultKindPanic for
// a contained *PanicError, FaultKindStuck for a watchdog *StuckError,
// FaultKindCanceled for context cancellation/expiry, FaultKindNone
// otherwise.
var ClassifyFault = core.ClassifyFault

// IsEngineFault reports whether err is a contained engine fault (a
// recovered panic or a watchdog abort) — the outcomes a circuit breaker
// should count against an (algo, strategy) key, as opposed to client
// cancellation or request validation errors.
var IsEngineFault = core.IsEngineFault
