package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"graphit/internal/parallel"
)

// Engine phase names, as reported by PanicError.Phase and passed to fault
// hooks. The coarse phases (next_bucket, relax, update_buckets) bracket the
// three stages of a round; the dotted names are the finer-grained points
// inside the relax phase where parallel workers check in.
const (
	PhaseNext        = "next_bucket"
	PhaseRelax       = "relax"
	PhaseRelaxChunk  = "relax.chunk"
	PhaseFusion      = "relax.fusion"
	PhaseUpdate      = "update_buckets"
	PhaseApproxBatch = "approx.batch"
)

// PanicError reports a panic recovered from an engine phase. The run is
// halted, the executor's workers are joined and returned to their reusable
// state, and the error propagates out of RunContext/RunApproxContext
// alongside the partial Stats. A panic inside a round's sweep, the
// approximate drain's included, reports PhaseRelax.
type PanicError struct {
	// Phase is the engine phase the panic was recovered in (see the Phase*
	// constants).
	Phase string
	// Round is the 1-based round being executed (0 if no round had begun).
	Round int64
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at the recovery
	// point closest to the fault.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s phase (round %d): %v", e.Phase, e.Round, e.Value)
}

// Stuck reasons reported by StuckError.Reason.
const (
	// StuckRoundTimeout means one round exceeded Cfg.RoundTimeout.
	StuckRoundTimeout = "round_timeout"
	// StuckNoProgress means Cfg.StuckRounds consecutive rounds processed
	// the same bucket with zero relaxations.
	StuckNoProgress = "no_progress"
)

// StuckError reports a run aborted by its round deadline (RoundTimeout) or
// the no-progress detector (StuckRounds), with enough per-round trace context
// to diagnose the hang.
type StuckError struct {
	// Reason is StuckRoundTimeout or StuckNoProgress.
	Reason string
	// Round, Bucket, Priority, and Frontier describe the round that
	// triggered the abort.
	Round    int64
	Bucket   int64
	Priority int64
	Frontier int
	// Elapsed is how long the offending round (timeout, counted from
	// before its next_bucket phase) or the no-progress streak had been
	// running.
	Elapsed time.Duration
	// Recent holds the last few completed rounds' trace events, oldest
	// first, regardless of whether a Tracer was attached.
	Recent []RoundEvent
}

func (e *StuckError) Error() string {
	return fmt.Sprintf("core: run stuck (%s) at round %d: bucket %d (priority %d, frontier %d) after %v",
		e.Reason, e.Round, e.Bucket, e.Priority, e.Frontier, e.Elapsed)
}

// FaultHook observes engine phase transitions at chunk granularity: it is
// called with the phase name, the 1-based round, and the worker id. It is
// the seam the internal/faults injection harness uses to panic, delay, or
// cancel at a deterministic point; hooks run on engine workers and must be
// safe for concurrent calls.
type FaultHook func(phase string, round int64, worker int)

// faultHookKey carries a FaultHook through a context.Context.
type faultHookKey struct{}

// WithFaultHook returns a context carrying h; runs started with that
// context invoke h at every engine phase checkpoint.
func WithFaultHook(ctx context.Context, h FaultHook) context.Context {
	return context.WithValue(ctx, faultHookKey{}, h)
}

// FaultHookFrom extracts the FaultHook installed by WithFaultHook, if any.
func FaultHookFrom(ctx context.Context) (FaultHook, bool) {
	h, ok := ctx.Value(faultHookKey{}).(FaultHook)
	return h, ok
}

// Abort reasons recorded in runCtl's flag.
const (
	abortNone int32 = iota
	abortTimeout
	abortCancel
	abortPanic
)

// runCtl is the per-run control block shared between the round loop and
// the traversal phases: the fault-injection hook, the cooperative abort
// flag, the round deadline, and the current round's identity and start.
// Traversals poll it at chunk boundaries, so an abort (deadline, cancel or
// a worker's panic) interrupts a round at chunk granularity (not a single
// blocked call into a user edge function — a Go limitation: the round is
// aborted as soon as the offending chunk returns).
type runCtl struct {
	hook FaultHook
	// worker is the id the round loop's own checkpoints report: 0, except
	// in a lane group, where it is the group's executor worker.
	worker int
	// timeout is the round deadline (0 = none); start is the monotonic
	// origin of roundStart, set by arm.
	timeout time.Duration
	start   time.Time

	reason     atomic.Int32 // abortNone/abortTimeout/abortCancel/abortPanic
	round      atomic.Int64 // 1-based round in flight (0 when idle)
	roundStart atomic.Int64 // the round's start, in ns since start
}

func newRunCtl(ctx context.Context) *runCtl {
	c := &runCtl{}
	if h, ok := FaultHookFrom(ctx); ok {
		c.hook = h
	}
	return c
}

// arm sets the round deadline (0 = none) and turns ctx's cancellation into
// an abort, so every checkpoint and drain sees it mid-round; the returned
// function unregisters that. A context that can never be cancelled
// registers nothing, and a cancelable one starts no goroutine until it is
// cancelled.
func (c *runCtl) arm(ctx context.Context, timeout time.Duration) (disarm func() bool) {
	if timeout > 0 {
		c.timeout, c.start = timeout, time.Now()
	}
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, func() { c.abort(abortCancel) })
}

// abort requests a cooperative stop; the first reason wins.
func (c *runCtl) abort(reason int32) { c.reason.CompareAndSwap(abortNone, reason) }

// aborted reports the recorded abort reason (abortNone if none).
func (c *runCtl) aborted() int32 { return c.reason.Load() }

// beginRound marks round in flight and, under a deadline, stamps its start.
func (c *runCtl) beginRound(round int64) {
	c.round.Store(round)
	if c.timeout > 0 {
		c.roundStart.Store(int64(time.Since(c.start)))
	}
}

// elapsed is how long the round in flight has run; it needs a deadline
// armed, as only then are rounds stamped.
func (c *runCtl) elapsed() time.Duration {
	return time.Since(c.start) - time.Duration(c.roundStart.Load())
}

// stopped is the one stop question of the round loop and its traversals:
// it reports whether the run has been aborted, first recording a timeout
// if the round in flight is past its deadline.
func (c *runCtl) stopped() bool {
	if c.reason.Load() != abortNone {
		return true
	}
	if c.timeout > 0 && c.elapsed() > c.timeout {
		c.abort(abortTimeout)
		return true
	}
	return false
}

// clean reports whether a finished run's scratch may be pooled: not after a
// contained panic or an abort, which leave derived state (dense frontier
// maps, histograms, lane buffers) partial.
func (c *runCtl) clean() bool { return c.aborted() == abortNone }

// fire invokes the fault-injection hook, if any.
func (c *runCtl) fire(phase string, worker int) {
	if c.hook != nil {
		c.hook(phase, c.round.Load(), worker)
	}
}

// fireAt is fire with an explicit round — used by the approximate drain,
// whose one round holds many batches: it passes the worker's batch index.
func (c *runCtl) fireAt(phase string, round int64, worker int) {
	if c.hook != nil {
		c.hook(phase, round, worker)
	}
}

// checkpoint is the per-chunk check inside parallel traversal phases: it
// fires the injection hook (which may panic — contained by the executor)
// and reports whether the worker should stop claiming work.
func (c *runCtl) checkpoint(phase string, worker int) bool {
	c.fire(phase, worker)
	return c.stopped()
}

// contain is deferred by every worker body of a traversal. A panic records
// abortPanic, so sibling workers stop at their next checkpoint, and unwinds
// on as a *parallel.Panic carrying the stack captured here, the closest
// frame to the fault, for the executor to re-raise on the round loop.
func (c *runCtl) contain(worker int) {
	if r := recover(); r != nil {
		panic(c.fault(r, worker))
	}
}

// fault records the panic r of worker as the run's abort reason and wraps
// it as a *parallel.Panic, capturing the stack unless r already carries one.
func (c *runCtl) fault(r any, worker int) *parallel.Panic {
	c.abort(abortPanic)
	if p, ok := r.(*parallel.Panic); ok {
		return p
	}
	return &parallel.Panic{Value: r, Stack: debug.Stack(), Worker: worker}
}

// asPanicError converts a recovered panic value into a *PanicError,
// unwrapping the executor's *parallel.Panic so the stack captured closest
// to the fault survives.
func asPanicError(phase string, round int64, r any) *PanicError {
	switch p := r.(type) {
	case *PanicError:
		return p
	case *parallel.Panic:
		return &PanicError{Phase: phase, Round: round, Value: p.Value, Stack: p.Stack}
	default:
		return &PanicError{Phase: phase, Round: round, Value: r, Stack: debug.Stack()}
	}
}
