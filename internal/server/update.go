package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"graphit/internal/livegraph"
)

// maxUpdateBody bounds a POST /update request body. A maximal default batch
// (8192 ops) is well under 1 MiB of JSON; 4 MiB leaves room for raised
// -max-batch-ops without letting a hostile client buffer arbitrary input.
const maxUpdateBody = 4 << 20

// UpdateOp is one edge mutation on the wire. Op is "add", "remove", or
// "reweight"; W is required for add/reweight on weighted graphs and must be
// non-negative (the ordered engines assume non-negative weights).
type UpdateOp struct {
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	W   int32  `json:"w,omitempty"`
}

// UpdateRequest is the JSON body of POST /update: one batch of edge
// mutations applied atomically to one named graph. The batch either applies
// in full — advancing the graph's epoch by exactly one — or is rejected in
// full; there is no partial application.
type UpdateRequest struct {
	Graph string     `json:"graph"`
	Ops   []UpdateOp `json:"ops"`
}

// UpdateResponse reports an applied batch: the epoch the batch produced
// (queries answered at this epoch or later see the new edges). OverlayOps
// is always zero — there is no overlay — and stays on the wire only until
// benchmarks/spine stops decoding into this struct's old shape.
type UpdateResponse struct {
	Graph      string `json:"graph"`
	Epoch      uint64 `json:"epoch"`
	Applied    int    `json:"applied"`
	OverlayOps int    `json:"overlay_ops"`
	Error      string `json:"error,omitempty"`
}

// decodeUpdateBody parses and shape-validates one /update body. It is the
// complete wire-to-livegraph translation — the fuzz target drives exactly
// this function — so the handler behind it only routes and maps errors.
// Unknown fields and trailing garbage are rejected: a mutation endpoint
// should not guess at a client's intent.
func decodeUpdateBody(data []byte) (UpdateRequest, []livegraph.Op, error) {
	var req UpdateRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return UpdateRequest{}, nil, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return UpdateRequest{}, nil, errors.New("bad request body: trailing data after batch")
	}
	if req.Graph == "" {
		return UpdateRequest{}, nil, errors.New("missing graph name")
	}
	if len(req.Ops) == 0 {
		return UpdateRequest{}, nil, errors.New("empty batch")
	}
	ops := make([]livegraph.Op, len(req.Ops))
	for i, op := range req.Ops {
		var kind livegraph.OpKind
		switch op.Op {
		case "add":
			kind = livegraph.OpAdd
		case "remove":
			kind = livegraph.OpRemove
		case "reweight":
			kind = livegraph.OpReweight
		default:
			return UpdateRequest{}, nil, fmt.Errorf("op %d: unknown op %q (want add, remove, or reweight)", i, op.Op)
		}
		if op.W < 0 {
			return UpdateRequest{}, nil, fmt.Errorf("op %d: negative weight %d", i, op.W)
		}
		ops[i] = livegraph.Op{Kind: kind, Src: op.Src, Dst: op.Dst, W: op.W}
	}
	return req, ops, nil
}

// handleUpdate applies one mutation batch. Failure taxonomy: malformed or
// semantically invalid batches are 400, an over-cap batch is 400 with the
// limit in the message, mutating an immutable (symmetric) graph is 409, and
// a closed graph or draining server is 503. There is no backlog to push
// back on: a batch is a complete epoch the moment it is acked.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, &UpdateResponse{Error: "draining"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, &UpdateResponse{Error: "request body too large"})
		return
	}
	req, ops, err := decodeUpdateBody(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &UpdateResponse{Error: err.Error()})
		return
	}
	live := s.lives[req.Graph]
	if live == nil {
		writeJSON(w, http.StatusNotFound, &UpdateResponse{Graph: req.Graph, Error: fmt.Sprintf("unknown graph %q", req.Graph)})
		return
	}
	if !s.cfg.Mutable {
		writeJSON(w, http.StatusForbidden, &UpdateResponse{Graph: req.Graph,
			Error: "server is read-only (start graphd with -mutable)"})
		return
	}
	res, err := live.ApplyBatch(ops)
	if res.DurableWait > 0 {
		s.pipe.ObserveDurableWait(res.DurableWait)
	}
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, livegraph.ErrImmutable):
			status = http.StatusConflict
		case errors.Is(err, livegraph.ErrClosed):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", s.retryAfter())
		case errors.Is(err, livegraph.ErrDurability):
			// The WAL could not make the batch durable. No Retry-After: a
			// poisoned store does not heal; the operator must intervene.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, &UpdateResponse{Graph: req.Graph, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, &UpdateResponse{Graph: req.Graph, Epoch: res.Epoch, Applied: res.Applied})
}
