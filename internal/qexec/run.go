package qexec

import (
	"context"
	"fmt"
	"runtime/debug"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
)

// Code classifies an Outcome for transport adapters. It is deliberately
// transport-neutral: HTTP maps it to status codes, a CLI to exit codes.
type Code int

const (
	// CodeOK: the query produced an answer (possibly via the fallback
	// schedule — see Outcome.Fallback).
	CodeOK Code = iota
	// CodeBadRequest: the request failed validation (plan stage) or
	// surfaced a request-shaped error from the algorithm wrapper itself.
	CodeBadRequest
	// CodeShed: the run slots were busy and the bounded queue was full.
	CodeShed
	// CodeDraining: the pipeline has stopped admitting work.
	CodeDraining
	// CodeClientGone: the caller's context ended while the request waited
	// (queued for a slot, or for a coalesced flight to finish).
	CodeClientGone
	// CodeBudget: the wall-clock budget was exhausted mid-run; partial
	// stats are attached when the engine produced them.
	CodeBudget
	// CodeFault: both the primary and the fallback faulted (or the
	// fallback alone, with the breaker open) — a genuinely hostile run.
	CodeFault
)

// codeNames renders Codes for metrics labels and trace export.
var codeNames = [...]string{
	CodeOK:         "ok",
	CodeBadRequest: "bad_request",
	CodeShed:       "shed",
	CodeDraining:   "draining",
	CodeClientGone: "client_gone",
	CodeBudget:     "budget",
	CodeFault:      "fault",
}

func (c Code) String() string {
	if c >= 0 && int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "invalid"
}

// Outcome is the typed result of one pipeline execution — everything a
// transport needs to render a reply, with no transport types involved.
type Outcome struct {
	// Algo / Graph / Strategy echo the resolved plan (Strategy is empty
	// when planning itself failed).
	Algo     string
	Graph    string
	Strategy string
	// Epoch is the graph epoch the answer was computed against (the
	// snapshot the plan pinned; zero when planning failed).
	Epoch uint64
	// Code classifies the outcome; Err carries the failure detail for
	// every Code but CodeOK.
	Code Code
	Err  error
	// FaultKind is the kind ("panic" or "stuck") of the request's latest
	// contained fault: the primary run's when only the primary faulted —
	// the fallback then answered, ran out of budget, or was skipped because
	// the caller's context had ended — and the fallback run's when the
	// fallback faulted, whether after the primary or alone behind an open
	// breaker (CodeFault). Empty when no run faulted.
	FaultKind string
	// Breaker is the (algo, strategy) breaker's state after this request.
	Breaker string
	// Fallback reports that the answer was produced by the safe fallback
	// schedule — either transparently after a primary-run fault, or
	// directly because the breaker was open.
	Fallback bool
	// Cached / Coalesced report which pipeline stage served the request
	// without (Cached) or by sharing (Coalesced) an engine run.
	Cached    bool
	Coalesced bool
	// Batched reports that the request went through the batch-coalescing
	// stage; BatchLanes is the lane count of the shared multi-source run
	// that answered it (0 when nothing was shared: the window closed solo —
	// the answer then came from a one-lane lane-kernel run — or the stage
	// only classified a failure).
	Batched    bool
	BatchLanes int
	// Summary is the canonical result summary (CodeOK only).
	Summary algo.Summary
	// Stats are the engine's execution counters (partial after a contained
	// fault or cancellation; a cached outcome carries the producing run's
	// stats).
	Stats *graphit.Stats
}

// fallbackSchedule is the known-safe schedule a faulted or broken (algo,
// strategy) key is re-routed to: lazy bucketing (valid for every algorithm
// and order), serial execution, SparsePush. A fallback run starts from
// scratch and is the request's last attempt: a contained fault in it ends
// the request with CodeFault. The watchdogs stay armed — fallback runs are
// still untrusted.
func fallbackSchedule(params cliutil.ScheduleParams) (graphit.Schedule, error) {
	params.Strategy = "lazy"
	params.Direction = "SparsePush"
	params.Workers = 1
	return params.Schedule()
}

// outcome starts an Outcome for pl: the plan echo every reply carries, plus
// the given classification.
func (pl *Plan) outcome(code Code, err error) *Outcome {
	return &Outcome{Algo: pl.Spec.Name, Graph: pl.GraphName, Strategy: pl.Strategy, Epoch: pl.Epoch, Code: code, Err: err}
}

// runLanes executes the lanes under sched with a last-resort panic shield:
// the engine contains panics in its own phases, but algorithm code outside
// an engine phase (argument checks, setup, result assembly) could still
// unwind into the pipeline. Any such panic is converted to a
// *graphit.PanicError so every layer above sees one fault taxonomy and the
// process never dies for a query.
//
// The primary run of a batchable plan goes to the lane kernel as one k-lane
// Spec.RunMulti for every k ≥ 1: a window that closed solo, or a plan under
// BatchWindow=0, is a one-lane kernel run. Otherwise — a non-batchable plan,
// which always has one lane, or a fallback run — each lane is its own
// Spec.Run, back to back, stopping at the first error. Results come back
// per lane; a failed run may still carry partial results (and so partial
// stats).
func runLanes(ctx context.Context, lanes []*lane, sched graphit.Schedule, primary bool) (res []*algo.QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &graphit.PanicError{Phase: "qexec.run", Value: r, Stack: debug.Stack()}
		}
	}()
	lead := lanes[0].pl
	if primary && lead.batchable() {
		srcs := make([]graphit.VertexID, len(lanes))
		dsts := make([]graphit.VertexID, len(lanes))
		for i, ln := range lanes {
			srcs[i], dsts[i] = ln.pl.Src, ln.pl.Dst
		}
		return lead.Spec.RunMulti(ctx, lead.Graph, srcs, dsts, sched)
	}
	res = make([]*algo.QueryResult, len(lanes))
	for i, ln := range lanes {
		if res[i], err = lead.Spec.Run(ctx, lead.Graph, ln.pl.Src, ln.pl.Dst, sched); err != nil {
			break
		}
	}
	return res, err
}

// route executes the group's lanes under the breaker policy for their
// shared (algo, strategy) key and fills every lane's code, fault, breaker,
// and result fields: one breaker verdict covers the run, a primary fault
// triggers one fallback rerun from scratch (the request's last attempt: the
// engine itself never retries), and the error taxonomy is applied
// uniformly — the lanes of a group succeed or fail together. The primary
// run of a batchable plan is a lane-kernel run for every k, one lane
// included; the fallback for every k is per-lane Spec.Run under
// fallbackSchedule, on the engine: re-running the lane kernel would re-run
// the code that just faulted.
func (p *Pipeline) route(ctx context.Context, lanes []*lane, outs []*Outcome) {
	lead := lanes[0].pl
	key := lead.BreakerKey()

	var res []*algo.QueryResult
	var err error
	var faultKind string
	primary, done := p.breakers.Route(key)
	fallback := !primary
	if primary {
		res, err = runLanes(ctx, lanes, lead.Sched, true)
		fault := graphit.IsEngineFault(err)
		done(fault)
		if fault {
			faultKind = graphit.ClassifyFault(err)
			if ctx.Err() == nil {
				// Transparent re-route: the callers still get answers from
				// the safe schedule, within what remains of the budget.
				if fsched, ferr := fallbackSchedule(lead.Params); ferr == nil {
					p.breakers.RecordFallback(key)
					fallback = true
					res, err = runLanes(ctx, lanes, fsched, false)
				}
			}
		}
	} else if fsched, ferr := fallbackSchedule(lead.Params); ferr == nil {
		res, err = runLanes(ctx, lanes, fsched, false)
	} else {
		err = ferr
	}
	breaker := p.breakers.State(key).String()

	code := CodeOK
	switch {
	case err == nil:
	case graphit.ClassifyFault(err) == graphit.FaultKindCanceled:
		code, err = CodeBudget, fmt.Errorf("budget exhausted: %w", err)
	case graphit.IsEngineFault(err):
		// Both the primary and the fallback faulted (or the fallback alone,
		// with the breaker open) — a genuinely hostile run.
		code, faultKind = CodeFault, graphit.ClassifyFault(err)
	default:
		// A request-shaped error surfaced by the wrapper itself (e.g.
		// k-core rejecting ∆>1): the caller's fault, not the engine's.
		code = CodeBadRequest
	}
	for i, ln := range lanes {
		out := outs[i]
		out.Code, out.Err = code, err
		out.Breaker, out.FaultKind, out.Fallback = breaker, faultKind, fallback
		if i < len(res) && res[i] != nil {
			// A copy: the Outcome outlives the request in the cache and the
			// trace ring, and must not pin the result's n-element vectors.
			st := res[i].Stats
			out.Stats = &st
		}
		if code == CodeOK {
			out.Summary = algo.Summarize(ln.pl.Spec, res[i], ln.pl.Dst, ln.pl.Vertices)
		}
	}
}
