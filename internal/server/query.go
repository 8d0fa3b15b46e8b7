package server

import (
	"graphit"
	"graphit/algo"
	"graphit/internal/qexec"
)

// Query is the JSON body of POST /query — a pure wire shape; it maps 1:1
// onto qexec.Request, where validation and canonicalization happen.
type Query struct {
	// Algo is the algorithm name (see algo.Names).
	Algo string `json:"algo"`
	// Graph names one of the graphs the server loaded at startup.
	Graph string `json:"graph"`
	// Src / Dst are the source and (for ppsp/astar) destination vertices.
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	// Strategy / Direction / Delta / NumBuckets select the primary
	// schedule; empty/zero uses the server defaults.
	Strategy   string `json:"strategy,omitempty"`
	Direction  string `json:"direction,omitempty"`
	Delta      int64  `json:"delta,omitempty"`
	NumBuckets int    `json:"num_buckets,omitempty"`
	// BudgetMS is the client's wall-clock budget in milliseconds, clamped
	// to the server's [min, max] range; 0 uses the server default.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Vertices asks for the result values of specific vertices.
	Vertices []uint32 `json:"vertices,omitempty"`
}

// request converts the wire shape to the pipeline's transport-agnostic one.
func (q *Query) request() qexec.Request {
	return qexec.Request{
		Algo:       q.Algo,
		Graph:      q.Graph,
		Src:        q.Src,
		Dst:        q.Dst,
		Strategy:   q.Strategy,
		Direction:  q.Direction,
		Delta:      q.Delta,
		NumBuckets: q.NumBuckets,
		BudgetMS:   q.BudgetMS,
		Vertices:   q.Vertices,
	}
}

// Response is the JSON body of a /query reply (success or failure). The
// result summary is the canonical algo.Summary, embedded: its result-kind
// fields are pointers, so a legitimate zero (reached=0, max_value=0,
// cover_size=0) is reported explicitly rather than vanishing under
// omitempty.
type Response struct {
	Algo     string `json:"algo"`
	Graph    string `json:"graph"`
	Strategy string `json:"strategy"`
	// Epoch is the graph epoch the answer was computed against; a client
	// that just POSTed an update sees its batch reflected in any answer
	// whose epoch is >= the epoch the update returned.
	Epoch uint64 `json:"epoch"`
	// Fallback reports that the answer was produced by the safe fallback
	// schedule — either transparently after a primary-run fault, or
	// directly because the (algo, strategy) breaker was open.
	Fallback bool `json:"fallback"`
	// Cached / Coalesced report that the answer was served from the result
	// cache, or by sharing another in-flight identical query's engine run.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Batched reports that the answer came through the batch-coalescing
	// stage; BatchLanes is the lane count of the shared multi-source run
	// that produced it (absent when the window closed solo).
	Batched    bool `json:"batched,omitempty"`
	BatchLanes int  `json:"batch_lanes,omitempty"`
	// Breaker is the (algo, strategy) breaker's state after this request.
	Breaker string `json:"breaker"`
	// FaultKind is the kind ("panic" or "stuck") of the request's latest
	// contained fault, as qexec.Outcome.FaultKind defines it: the primary
	// run's when the fallback answered, the fallback's when it faulted.
	FaultKind string         `json:"fault_kind,omitempty"`
	Stats     *graphit.Stats `json:"stats,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms"`

	// Result summary, by result kind (flattened into the object).
	algo.Summary

	Error string `json:"error,omitempty"`
}

// newResponse renders a pipeline Outcome as the wire shape.
func newResponse(out *qexec.Outcome) *Response {
	resp := &Response{
		Algo:       out.Algo,
		Graph:      out.Graph,
		Strategy:   out.Strategy,
		Epoch:      out.Epoch,
		Fallback:   out.Fallback,
		Cached:     out.Cached,
		Coalesced:  out.Coalesced,
		Batched:    out.Batched,
		BatchLanes: out.BatchLanes,
		Breaker:    out.Breaker,
		FaultKind:  out.FaultKind,
		Stats:      out.Stats,
		Summary:    out.Summary,
	}
	if out.Err != nil {
		resp.Error = out.Err.Error()
	}
	return resp
}

// httpStatus maps the pipeline's outcome codes onto HTTP.
func httpStatus(c qexec.Code) int {
	switch c {
	case qexec.CodeOK:
		return 200
	case qexec.CodeBadRequest:
		return 400
	case qexec.CodeShed:
		return 429
	case qexec.CodeDraining:
		return 503
	case qexec.CodeClientGone:
		return 499 // client closed request (nginx convention)
	case qexec.CodeBudget:
		return 504
	default: // qexec.CodeFault
		return 500
	}
}
