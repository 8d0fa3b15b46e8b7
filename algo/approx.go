package algo

import (
	"context"
	"fmt"
	"math"

	"graphit"
)

// The *_Approx variants run under approximate priority ordering — the
// execution model of Galois's ordered list, which the paper compares
// against in Table 4 and Figure 4. They share the UDFs of their strict
// counterparts but never synchronize globally per priority, trading
// work-efficiency for reduced synchronization (paper §7, "Approximate
// Priority Ordering").

// SSSPApprox is ∆-stepping SSSP under approximate ordering (Galois).
func SSSPApprox(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPApproxContext(context.Background(), g, src, sched)
}

// SSSPApproxContext is SSSPApprox under a context, returning the partial
// distance vector and ctx.Err() on cancellation.
func SSSPApproxContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
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
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	op.Cfg = cfg
	st, err := op.RunApproxContext(ctx)
	if err != nil {
		if halted(ctx, err) {
			return &SSSPResult{Dist: dist, Stats: st}, err
		}
		return nil, err
	}
	return &SSSPResult{Dist: dist, Stats: st}, nil
}

// PPSPApprox is point-to-point shortest path under approximate ordering.
func PPSPApprox(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return PPSPApproxContext(context.Background(), g, src, dst, sched)
}

// PPSPApproxContext is PPSPApprox under a context, returning the partial
// distance vector and ctx.Err() on cancellation.
func PPSPApproxContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
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
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	op.Cfg = cfg
	st, err := op.RunApproxContext(ctx)
	if err != nil {
		if halted(ctx, err) {
			return &SSSPResult{Dist: dist, Stats: st}, err
		}
		return nil, err
	}
	return &SSSPResult{Dist: dist, Stats: st}, nil
}

// AStarApprox is A* search under approximate ordering.
func AStarApprox(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	return AStarApproxContext(context.Background(), g, src, dst, sched)
}

// AStarApproxContext is AStarApprox under a context, returning the partial
// result and ctx.Err() on cancellation.
func AStarApproxContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	if !g.HasCoords() {
		return nil, fmt.Errorf("algo: A* requires vertex coordinates")
	}
	n := g.NumVertices()
	target := g.Coord[dst]
	h := func(v graphit.VertexID) int64 {
		dx := float64(g.Coord[v].X - target.X)
		dy := float64(g.Coord[v].Y - target.Y)
		return int64(math.Sqrt(dx*dx + dy*dy))
	}
	dist := initDist(n, src)
	est := make([]int64, n)
	for i := range est {
		est[i] = graphit.Unreached
	}
	est[src] = h(src)
	op := &graphit.Ordered{
		G:     g,
		Prio:  est,
		Order: graphit.LowerFirst,
		Apply: func(s, d graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
			nd := graphit.AtomicLoad(&dist[s]) + int64(w)
			if graphit.WriteMin(&dist[d], nd) {
				q.UpdatePriorityMin(d, nd+h(d))
			}
		},
		Sources: []graphit.VertexID{src},
		Stop: func(cur int64) bool {
			best := graphit.AtomicLoad(&dist[dst])
			return best != graphit.Unreached && cur >= best
		},
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	op.Cfg = cfg
	st, err := op.RunApproxContext(ctx)
	if err != nil {
		if halted(ctx, err) {
			return &AStarResult{Dist: dist, Estimate: est, Stats: st}, err
		}
		return nil, err
	}
	return &AStarResult{Dist: dist, Estimate: est, Stats: st}, nil
}
