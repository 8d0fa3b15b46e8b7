package algo

import (
	"context"
	"fmt"

	"graphit"
)

// checkLanes validates a multi-source request shape: at least one lane, and
// every per-lane vertex in range (the engine would reject these too, but with
// lane-relative wording; here the caller gets a request-level error first).
func checkLanes(g *graphit.Graph, what string, vs []graphit.VertexID) error {
	if len(vs) == 0 {
		return fmt.Errorf("algo: multi-source run needs at least one %s", what)
	}
	n := g.NumVertices()
	for l, v := range vs {
		if int(v) >= n {
			return fmt.Errorf("algo: lane %d %s vertex %d out of range (graph has %d vertices)", l, what, v, n)
		}
	}
	return nil
}

// multiDistOp builds the k-lane ∆-stepping operator: one initDist vector per
// lane; the relaxation is the engine's own (paper Figure 3's min-plus UDF).
func multiDistOp(g *graphit.Graph, srcs []graphit.VertexID) (*graphit.MultiOrdered, [][]int64) {
	n := g.NumVertices()
	lanes := make([][]int64, len(srcs))
	for l, src := range srcs {
		lanes[l] = initDist(n, src)
	}
	op := &graphit.MultiOrdered{
		G:       g,
		Lanes:   lanes,
		Order:   graphit.LowerFirst,
		Sources: srcs,
	}
	return op, lanes
}

func multiResults(lanes [][]int64, ms graphit.MultiStats) []*SSSPResult {
	out := make([]*SSSPResult, len(lanes))
	for l := range lanes {
		out[l] = &SSSPResult{Dist: lanes[l], Stats: ms.Lane(l)}
	}
	return out
}

// SSSPMulti computes single-source shortest paths from k sources in one
// shared ∆-stepping run (one frontier, one bucket structure, one edge sweep
// per round). Each lane's result is element-wise equal to an independent
// SSSP run from that source under the same schedule; per-lane Stats carry
// the lane's relaxation/processed share of the shared rounds. Only lazy
// schedules are accepted (the engine rejects eager strategies).
func SSSPMulti(g *graphit.Graph, srcs []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	return SSSPMultiContext(context.Background(), g, srcs, sched)
}

// SSSPMultiContext is SSSPMulti under a context. On cancellation or a
// contained fault it returns the partial per-lane results together with the
// error.
func SSSPMultiContext(ctx context.Context, g *graphit.Graph, srcs []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	if err := checkLanes(g, "source", srcs); err != nil {
		return nil, err
	}
	op, lanes := multiDistOp(g, srcs)
	ms, err := graphit.RunOrderedMultiContext(ctx, op, sched)
	if err != nil {
		if halted(ctx, err) {
			return multiResults(lanes, ms), err
		}
		return nil, err
	}
	return multiResults(lanes, ms), nil
}

// WBFSMulti is SSSPMulti specialized to ∆=1 (weighted breadth-first search);
// any ∆ in the schedule is overridden.
func WBFSMulti(g *graphit.Graph, srcs []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	return WBFSMultiContext(context.Background(), g, srcs, sched)
}

// WBFSMultiContext is WBFSMulti under a context.
func WBFSMultiContext(ctx context.Context, g *graphit.Graph, srcs []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	return SSSPMultiContext(ctx, g, srcs, sched.ConfigApplyPriorityUpdateDelta(1))
}

// PPSPMulti computes k point-to-point shortest paths in one shared run, with
// a per-lane early-termination condition: lane l stops contributing edge work
// once the shared round priority reaches its best-known distance to dsts[l],
// and the whole run halts when every lane has stopped. Each lane's pair
// distance equals an independent PPSP run's; the rest of a lane's distance
// vector may be settled further than an independent run would have (the
// shared loop keeps rounds alive for unfinished lanes).
func PPSPMulti(g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	return PPSPMultiContext(context.Background(), g, srcs, dsts, sched)
}

// PPSPMultiContext is PPSPMulti under a context.
func PPSPMultiContext(ctx context.Context, g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) ([]*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	if err := checkLanes(g, "source", srcs); err != nil {
		return nil, err
	}
	if err := checkLanes(g, "destination", dsts); err != nil {
		return nil, err
	}
	if len(dsts) != len(srcs) {
		return nil, fmt.Errorf("algo: %d destinations for %d sources", len(dsts), len(srcs))
	}
	op, lanes := multiDistOp(g, srcs)
	op.Stops = make([]graphit.StopFunc, len(srcs))
	for l := range op.Stops {
		dist, dst := lanes[l], dsts[l]
		op.Stops[l] = func(cur int64) bool {
			best := graphit.AtomicLoad(&dist[dst])
			return best != graphit.Unreached && cur >= best
		}
	}
	ms, err := graphit.RunOrderedMultiContext(ctx, op, sched)
	if err != nil {
		if halted(ctx, err) {
			return multiResults(lanes, ms), err
		}
		return nil, err
	}
	return multiResults(lanes, ms), nil
}
