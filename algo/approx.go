package algo

import (
	"context"

	"graphit"
)

// The *Approx variants run their algorithm's operator under approximate
// priority ordering — the execution model of Galois's ordered list, which
// the paper compares against in Table 4 and Figure 4. They never
// synchronize globally per priority, trading work-efficiency for reduced
// synchronization (paper §7, "Approximate Priority Ordering").

// runApprox is the runner for approximate ordering.
func runApprox(ctx context.Context, op *graphit.Ordered, s graphit.Schedule) (graphit.Stats, error) {
	cfg, err := s.Config()
	if err != nil {
		return graphit.Stats{}, err
	}
	op.Cfg = cfg
	return op.RunApproxContext(ctx)
}

// SSSPApprox is ∆-stepping SSSP under approximate ordering (Galois).
func SSSPApprox(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPApproxContext(context.Background(), g, src, sched)
}

// SSSPApproxContext is SSSPApprox under a context, returning the partial
// distance vector and ctx.Err() on cancellation.
func SSSPApproxContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return sssp(ctx, g, src, sched, runApprox)
}

// PPSPApprox is point-to-point shortest path under approximate ordering.
func PPSPApprox(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return PPSPApproxContext(context.Background(), g, src, dst, sched)
}

// PPSPApproxContext is PPSPApprox under a context, returning the partial
// distance vector and ctx.Err() on cancellation.
func PPSPApproxContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return ppsp(ctx, g, src, dst, sched, runApprox)
}

// AStarApprox is A* search under approximate ordering.
func AStarApprox(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	return AStarApproxContext(context.Background(), g, src, dst, sched)
}

// AStarApproxContext is AStarApprox under a context, returning the partial
// result and ctx.Err() on cancellation.
func AStarApproxContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	return astar(ctx, g, src, dst, sched, runApprox)
}
