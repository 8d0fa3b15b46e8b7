package algo

import (
	"context"

	"graphit"
)

// SSSPResult carries the output of a shortest-path style run.
type SSSPResult struct {
	// Dist[v] is the shortest distance from the source to v, or
	// graphit.Unreached if v is unreachable.
	Dist []int64
	// Stats are the engine's execution counters.
	Stats graphit.Stats
}

// SSSP computes single-source shortest paths with ∆-stepping (paper Figures
// 3 and 5–7): vertices are bucketed by floor(dist/∆) and processed in
// bucket order; the schedule selects eager/lazy bucketing, bucket fusion,
// ∆, and traversal direction. It is the library form of the DSL program in
// paper Figure 3.
func SSSP(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPContext(context.Background(), g, src, sched)
}

// SSSPContext is SSSP under a context. On cancellation it returns the
// partial result computed so far (distances settled up to the cancelled
// round) together with ctx.Err().
func SSSPContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return sssp(ctx, g, src, sched, graphit.RunOrderedContext)
}

// runner runs an operator under a schedule: graphit.RunOrderedContext for
// strict priority ordering, runApprox for Galois's approximate ordering.
// Each algorithm builds its operator once and takes the runner.
type runner func(context.Context, *graphit.Ordered, graphit.Schedule) (graphit.Stats, error)

// sssp is SSSP's operator under either ordering.
func sssp(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule, run runner) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	dist := initDist(g.NumVertices(), src)
	op := &graphit.Ordered{
		G:     g,
		Prio:  dist,
		Order: graphit.LowerFirst,
		// The UDF from paper Figure 3, lines 7–10 — lower dst's priority
		// to the relaxed distance — run natively by the engine.
		Relax:   graphit.MinPlus,
		Sources: []graphit.VertexID{src},
	}
	st, err := run(ctx, op, sched)
	if err != nil && !halted(ctx, err) {
		return nil, err
	}
	return &SSSPResult{Dist: dist, Stats: st}, err
}

// WBFS computes weighted breadth-first search: ∆-stepping specialized to
// ∆=1 for graphs with small positive integer weights (paper §6.1). Any ∆
// in the schedule is overridden.
func WBFS(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return WBFSContext(context.Background(), g, src, sched)
}

// WBFSContext is WBFS under a context.
func WBFSContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPContext(ctx, g, src, sched.ConfigApplyPriorityUpdateDelta(1))
}

// PPSP computes a point-to-point shortest path with ∆-stepping plus early
// termination: the run halts on entering a bucket whose priority is at
// least the best distance already found for dst (paper §6.1).
func PPSP(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return PPSPContext(context.Background(), g, src, dst, sched)
}

// PPSPContext is PPSP under a context, returning the partial result and
// ctx.Err() on cancellation.
func PPSPContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return ppsp(ctx, g, src, dst, sched, graphit.RunOrderedContext)
}

// ppsp is PPSP's operator under either ordering.
func ppsp(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule, run runner) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	dist := initDist(g.NumVertices(), src)
	op := &graphit.Ordered{
		G:       g,
		Prio:    dist,
		Order:   graphit.LowerFirst,
		Relax:   graphit.MinPlus,
		Sources: []graphit.VertexID{src},
		Stop: func(cur int64) bool {
			best := graphit.AtomicLoad(&dist[dst])
			return best != graphit.Unreached && cur >= best
		},
	}
	st, err := run(ctx, op, sched)
	if err != nil && !halted(ctx, err) {
		return nil, err
	}
	return &SSSPResult{Dist: dist, Stats: st}, err
}
