package algo

import (
	"context"
	"fmt"
	"sync/atomic"

	"graphit"
	"graphit/internal/atomicutil"
	"graphit/internal/parallel"
)

// BellmanFord computes single-source shortest paths with the unordered
// frontier-based Bellman-Ford algorithm, the Ligra / unordered-GraphIt
// baseline of the paper's Figure 1 and Table 4: every round relaxes all
// out-edges of the entire active frontier regardless of priority,
// performing redundant work that ∆-stepping avoids.
//
// The rounds run on an executor of the schedule's ConfigNumWorkers workers,
// checked out for this run alone. The schedule's other options configure
// buckets, which this baseline does not have.
func BellmanFord(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return BellmanFordContext(context.Background(), g, src, sched)
}

// BellmanFordContext is BellmanFord under a context: cancellation is checked
// at every round barrier and returns the partial distance vector together
// with ctx.Err().
func BellmanFordContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	dist := initDist(n, src)
	dedup := atomicutil.NewFlags(n)
	frontier := []uint32{src}
	var st graphit.Stats
	var runErr error
	ex := parallel.Acquire(cfg.Workers)
	defer parallel.Release(ex)
	outs := make([][]uint32, ex.Workers())

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		st.Rounds++
		st.GlobalSyncs++
		var relax int64
		ex.ForChunks(len(frontier), 0, func(lo, hi, worker int) {
			var local int64
			for _, s := range frontier[lo:hi] {
				ds := atomicutil.Load(&dist[s])
				neigh := g.OutNeigh(s)
				wts := g.OutWts(s)
				for i, d := range neigh {
					local++
					if atomicutil.WriteMin(&dist[d], ds+int64(wts[i])) && dedup.TrySet(d) {
						outs[worker] = append(outs[worker], d)
					}
				}
			}
			atomicAdd(&relax, local)
		})
		st.Relaxations += relax
		var next []uint32
		for i := range outs {
			next = append(next, outs[i]...)
			outs[i] = outs[i][:0]
		}
		dedup.ResetList(next)
		st.Processed += int64(len(frontier))
		frontier = next
	}
	return &SSSPResult{Dist: dist, Stats: st}, runErr
}

// UnorderedKCore computes coreness with the unordered peeling baseline
// (Figure 1): for each successive k it repeatedly scans all remaining
// vertices for those with induced degree <= k, without any bucketing, so
// every peel level pays a full-vertex-set scan.
//
// As with BellmanFord, only the schedule's ConfigNumWorkers applies: the
// scans and peels run on an executor of that many workers.
func UnorderedKCore(g *graphit.Graph, sched graphit.Schedule) (*KCoreResult, error) {
	return UnorderedKCoreContext(context.Background(), g, sched)
}

// UnorderedKCoreContext is UnorderedKCore under a context: cancellation is
// checked at every peel round and returns the partially peeled coreness
// vector together with ctx.Err().
func UnorderedKCoreContext(ctx context.Context, g *graphit.Graph, sched graphit.Schedule) (*KCoreResult, error) {
	if !g.Symmetric() {
		return nil, fmt.Errorf("algo: k-core requires a symmetrized graph")
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	deg := make([]int64, n)
	alive := make([]bool, n)
	maxDeg := int64(0)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.OutDegree(graphit.VertexID(v)))
		alive[v] = true
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	core := make([]int64, n)
	var st graphit.Stats
	remaining := n
	var runErr error
	ex := parallel.Acquire(cfg.Workers)
	defer parallel.Release(ex)
	// The peel list is reused across rounds.
	var peel []uint32
	for k := int64(0); k <= maxDeg && remaining > 0 && runErr == nil; k++ {
		keep := func(v int) bool { return alive[v] && deg[v] <= k }
		for {
			if err := ctx.Err(); err != nil {
				runErr = err
				break
			}
			st.Rounds++
			st.GlobalSyncs++
			// Full scan: collect alive vertices with degree <= k.
			st.Relaxations += int64(n) // scan cost: one check per vertex
			peel = vertexFilter(peel, n, keep)
			if len(peel) == 0 {
				break
			}
			for _, v := range peel {
				alive[v] = false
				core[v] = k
			}
			ex.ForChunks(len(peel), 0, func(lo, hi, _ int) {
				for _, v := range peel[lo:hi] {
					for _, d := range g.OutNeigh(v) {
						if alive[d] {
							atomicAdd(&deg[d], -1)
						}
					}
				}
			})
			remaining -= len(peel)
			st.Processed += int64(len(peel))
		}
	}
	return &KCoreResult{Coreness: core, Stats: st}, runErr
}

func atomicAdd(p *int64, v int64) {
	atomic.AddInt64(p, v)
}

// vertexFilter is Ligra's dense vertexFilter, the unordered peel's
// full rescan: it appends to peel[:0] the v in [0, n) that pass keep, in
// ascending order, in one serial loop.
func vertexFilter(peel []uint32, n int, keep func(v int) bool) []uint32 {
	peel = peel[:0]
	for v := 0; v < n; v++ {
		if keep(v) {
			peel = append(peel, uint32(v))
		}
	}
	return peel
}
