package algo

import (
	"context"
	"fmt"
	"math"

	"graphit"
)

// AStarResult carries the output of an A* run.
type AStarResult struct {
	// Dist[v] is the discovered distance from src to v (graphit.Unreached
	// if never relaxed); Dist[dst] is the shortest src→dst distance when a
	// path exists.
	Dist []int64
	// Estimate[v] is the priority vector: Dist[v] + h(v), where h is the
	// Euclidean-distance heuristic to dst.
	Estimate []int64
	Stats    graphit.Stats
}

// AStar finds the shortest src→dst path using A* search (paper §6.1): the
// priority of a vertex is its discovered distance plus a Euclidean
// lower-bound estimate of the remaining distance to dst, computed from the
// graph's vertex coordinates. The heuristic is consistent for graphs whose
// weights are at least the Euclidean distance between their endpoints
// (true of the generated road networks), so with ∆=1 the result is exact;
// with priority coarsening small inversions are tolerated as in the paper.
func AStar(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	return AStarContext(context.Background(), g, src, dst, sched)
}

// AStarContext is AStar under a context, returning the partial result and
// ctx.Err() on cancellation.
func AStarContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*AStarResult, error) {
	return astar(ctx, g, src, dst, sched, graphit.RunOrderedContext)
}

// astar is A*'s operator under either ordering.
func astar(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule, run runner) (*AStarResult, error) {
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
		// The UDF maintains dist as auxiliary data with an explicit atomic
		// relaxation (the compiler-inserted writeMin of paper §5.1) and
		// drives the priority queue with the f = dist + h estimate.
		Apply: func(s, d graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
			nd := graphit.AtomicLoad(&dist[s]) + int64(w)
			if graphit.WriteMin(&dist[d], nd) {
				q.UpdatePriorityMin(d, nd+h(d))
			}
		},
		Sources: []graphit.VertexID{src},
		Stop: func(cur int64) bool {
			best := graphit.AtomicLoad(&dist[dst])
			// f(dst) = dist(dst) since h(dst) = 0: once the current bucket's
			// priority reaches the best found distance, dst is finalized.
			return best != graphit.Unreached && cur >= best
		},
	}
	st, err := run(ctx, op, sched)
	if err != nil && !halted(ctx, err) {
		return nil, err
	}
	return &AStarResult{Dist: dist, Estimate: est, Stats: st}, err
}
