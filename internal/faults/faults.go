// Package faults is a deterministic fault-injection harness for the ordered
// engine. An Injector holds a set of Triggers keyed by engine phase name
// (the core.Phase* constants) and installs itself as the run's
// core.FaultHook; when a matching checkpoint fires it panics, sleeps, or
// cancels a context — the three fault classes the engine's containment
// layer must survive.
//
// Injection is deterministic: triggers match on exact phase names, explicit
// round numbers or a pure round predicate, and Nth-occurrence counts, so a
// test that injects "panic in relax.chunk, round 2, first checkpoint"
// observes the same fault on every run (which worker reaches the checkpoint
// first may vary, but that a fault fires, and where, does not). SeededPanic
// derives pseudo-random firing rounds from a hash of (seed, round), again
// identical across runs.
package faults

import (
	"context"
	"sync"
	"time"

	"graphit/internal/core"
)

// Actions recorded in Event.Action.
const (
	ActionPanic  = "panic"
	ActionDelay  = "delay"
	ActionCancel = "cancel"
)

// Event records one fired trigger.
type Event struct {
	Phase  string
	Round  int64
	Worker int
	Action string
}

// Trigger describes one injection point. Exactly one of PanicValue, Delay,
// or Cancel must be set.
type Trigger struct {
	// Phase is the exact engine phase name to match (core.PhaseRelaxChunk,
	// core.PhaseUpdate, ...). Required.
	Phase string
	// Round matches the 1-based round reported at the checkpoint; 0 matches
	// every round. (The approx engine reports the worker's batch index.)
	Round int64
	// Match, if non-nil, replaces the Round comparison with a predicate; it
	// must be pure so injection stays deterministic.
	Match func(round int64) bool
	// Occurrence fires the trigger on the Nth matching checkpoint (1-based);
	// 0 means the first.
	Occurrence int
	// Repeat keeps the trigger live after it fires, firing again on every
	// later matching checkpoint.
	Repeat bool
	// Times caps how many times a Repeat trigger fires in total; 0 means
	// unlimited. "Fail the first two fsyncs, then heal" is Repeat with
	// Times: 2. Ignored when Repeat is false (such triggers fire once).
	Times int

	// PanicValue, when non-nil, is panicked at the checkpoint (contained by
	// the engine and reported as a *core.PanicError).
	PanicValue any
	// Delay, when positive, blocks the checkpoint — the way to hold a round
	// in flight past Cfg.RoundTimeout.
	Delay time.Duration
	// Cancel, when non-nil, is invoked at the checkpoint — typically the
	// CancelFunc of the context the run itself was started with.
	Cancel context.CancelFunc
}

func (tr *Trigger) matches(phase string, round int64) bool {
	if phase != tr.Phase {
		return false
	}
	if tr.Match != nil {
		return tr.Match(round)
	}
	return tr.Round == 0 || tr.Round == round
}

// PanicAt builds a trigger panicking with value at phase; round 0 means the
// first round that reaches the phase.
func PanicAt(phase string, round int64, value any) Trigger {
	return Trigger{Phase: phase, Round: round, PanicValue: value}
}

// DelayAt builds a trigger blocking the checkpoint for d.
func DelayAt(phase string, round int64, d time.Duration) Trigger {
	return Trigger{Phase: phase, Round: round, Delay: d}
}

// CancelAt builds a trigger invoking cancel at the checkpoint.
func CancelAt(phase string, round int64, cancel context.CancelFunc) Trigger {
	return Trigger{Phase: phase, Round: round, Cancel: cancel}
}

// SeededPanic builds a repeating trigger that panics at phase on a
// deterministic pseudo-random subset of rounds: roughly one round in every
// n, selected by a splitmix64 hash of (seed, round). The same seed fires on
// the same rounds in every run.
func SeededPanic(phase string, seed, n uint64, value any) Trigger {
	if n == 0 {
		n = 1
	}
	return Trigger{
		Phase:      phase,
		Match:      func(round int64) bool { return mix(seed^uint64(round))%n == 0 },
		Repeat:     true,
		PanicValue: value,
	}
}

// mix is the splitmix64 finalizer — a cheap, well-distributed hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector matches engine checkpoints against its triggers and executes the
// first match's action. It is safe for concurrent use by engine workers and
// records every fired event for assertions.
type Injector struct {
	mu       sync.Mutex
	triggers []*Trigger
	hits     []int // matching-checkpoint count per trigger
	fired    []int // fire count per trigger
	events   []Event
}

// New builds an Injector over copies of the given triggers.
func New(triggers ...Trigger) *Injector {
	in := &Injector{
		triggers: make([]*Trigger, len(triggers)),
		hits:     make([]int, len(triggers)),
		fired:    make([]int, len(triggers)),
	}
	for i := range triggers {
		tr := triggers[i]
		in.triggers[i] = &tr
	}
	return in
}

// Hook returns the core.FaultHook form of the injector.
func (in *Injector) Hook() core.FaultHook {
	return func(phase string, round int64, worker int) {
		in.fire(phase, round, worker)
	}
}

// Context returns ctx with the injector installed as the run's fault hook.
func (in *Injector) Context(ctx context.Context) context.Context {
	return core.WithFaultHook(ctx, in.Hook())
}

// fire checks every trigger against one checkpoint. At most one trigger
// fires per checkpoint (the first match in declaration order); a panic
// action propagates to the caller after the event is recorded.
func (in *Injector) fire(phase string, round int64, worker int) {
	in.mu.Lock()
	var hit *Trigger
	for i, tr := range in.triggers {
		if in.fired[i] > 0 && !tr.Repeat {
			continue
		}
		if tr.Repeat && tr.Times > 0 && in.fired[i] >= tr.Times {
			continue
		}
		if !tr.matches(phase, round) {
			continue
		}
		in.hits[i]++
		occ := tr.Occurrence
		if occ <= 0 {
			occ = 1
		}
		if in.fired[i] == 0 && in.hits[i] < occ {
			continue
		}
		in.fired[i]++
		hit = tr
		break
	}
	if hit == nil {
		in.mu.Unlock()
		return
	}
	ev := Event{Phase: phase, Round: round, Worker: worker}
	switch {
	case hit.PanicValue != nil:
		ev.Action = ActionPanic
	case hit.Delay > 0:
		ev.Action = ActionDelay
	default:
		ev.Action = ActionCancel
	}
	in.events = append(in.events, ev)
	in.mu.Unlock()

	switch ev.Action {
	case ActionPanic:
		panic(hit.PanicValue)
	case ActionDelay:
		time.Sleep(hit.Delay)
	case ActionCancel:
		hit.Cancel()
	}
}

// Events returns a copy of every fired event, in firing order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Fired returns how many times any trigger fired at phase.
func (in *Injector) Fired(phase string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, ev := range in.events {
		if ev.Phase == phase {
			n++
		}
	}
	return n
}
