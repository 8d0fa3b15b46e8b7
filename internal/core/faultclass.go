package core

import (
	"context"
	"errors"
)

// Fault kinds returned by ClassifyFault. They are the serving layer's
// taxonomy of run outcomes: a circuit breaker counts engine faults
// (FaultKindPanic, FaultKindStuck) against an (algo, strategy) key, while
// FaultKindCanceled outcomes are charged to the client's budget and must
// not trip anything.
const (
	// FaultKindNone marks a nil error or one that is not a run-halting
	// condition the engine classifies (e.g. a validation error).
	FaultKindNone = ""
	// FaultKindPanic marks a *PanicError: a panic recovered from an engine
	// phase, typically a user edge function.
	FaultKindPanic = "panic"
	// FaultKindStuck marks a *StuckError: a round watchdog or no-progress
	// abort.
	FaultKindStuck = "stuck"
	// FaultKindCanceled marks context cancellation or deadline expiry — the
	// caller's doing, not the engine's.
	FaultKindCanceled = "canceled"
)

// ClassifyFault maps an error returned by RunContext (or any wrapper that
// preserves the error chain) to its fault kind. Engine faults win over
// cancellation: a *PanicError that also carries a cancelled context is
// still a panic.
func ClassifyFault(err error) string {
	if err == nil {
		return FaultKindNone
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return FaultKindPanic
	}
	var se *StuckError
	if errors.As(err, &se) {
		return FaultKindStuck
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return FaultKindCanceled
	}
	return FaultKindNone
}

// IsEngineFault reports whether err is a contained engine fault — a
// recovered panic or a watchdog abort. These are the outcomes a circuit
// breaker should count: the run was admitted, validated, and then failed in
// a way that signals a bad (algorithm, schedule, input) combination rather
// than a bad request.
func IsEngineFault(err error) bool {
	k := ClassifyFault(err)
	return k == FaultKindPanic || k == FaultKindStuck
}

// StrategyNames returns the valid scheduling-language strategy names, in
// declaration order — the canonical list for CLI/server validation errors.
func StrategyNames() []string {
	return append([]string(nil), strategyNames[:]...)
}

// DirectionNames returns the valid traversal-direction names.
func DirectionNames() []string {
	return append([]string(nil), directionNames[:]...)
}
