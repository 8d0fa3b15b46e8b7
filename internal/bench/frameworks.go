package bench

import (
	"context"
	"time"

	"graphit"
	"graphit/algo"
)

// Framework names the systems compared in paper Table 4 / Figure 4. Each
// is reproduced as its bucketing *strategy* on this repository's shared
// substrate, isolating exactly the variable the paper studies:
//
//	GraphIt  — this work: best schedule per algorithm/graph (eager with
//	           bucket fusion for ∆-stepping family, lazy with constant-sum
//	           histogram for k-core/SetCover)
//	GAPBS    — eager bucket update without fusion
//	Julienne — lazy bucket update
//	Galois   — approximate priority ordering (no global barriers)
//	Unordered— frontier-based unordered algorithms (unordered GraphIt and
//	           Ligra in the paper; one implementation stands for both)
type Framework string

const (
	FwGraphIt   Framework = "GraphIt"
	FwGAPBS     Framework = "GAPBS"
	FwJulienne  Framework = "Julienne"
	FwGalois    Framework = "Galois"
	FwUnordered Framework = "Unordered"
)

// Frameworks in the paper's presentation order.
var Frameworks = []Framework{FwGraphIt, FwGAPBS, FwJulienne, FwGalois, FwUnordered}

// RunResult is one timed algorithm run.
type RunResult struct {
	Time  time.Duration
	Stats graphit.Stats
	// Unsupported marks algorithm/framework pairs the original system does
	// not provide (gray cells in Figure 4, dashes in Table 4).
	Unsupported bool
	Err         error
}

func timed(f func() (graphit.Stats, error)) RunResult {
	start := time.Now()
	st, err := f()
	return RunResult{Time: time.Since(start), Stats: st, Err: err}
}

func unsupported() RunResult { return RunResult{Unsupported: true} }

// ssspSchedule returns each framework's ∆-stepping schedule for a dataset.
func ssspSchedule(fw Framework, d *Dataset) (graphit.Schedule, bool) {
	base := graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp)
	switch fw {
	case FwGraphIt:
		return base.ConfigApplyPriorityUpdate("eager_with_fusion"), true
	case FwGAPBS:
		return base.ConfigApplyPriorityUpdate("eager_no_fusion"), true
	case FwJulienne:
		return base.ConfigApplyPriorityUpdate("lazy"), true
	case FwGalois:
		return base, true
	}
	return graphit.Schedule{}, false
}

// SSSP runs ∆-stepping (or the unordered baseline) under fw's strategy.
// Like every framework runner, it threads ctx down to the engine so a
// cancellation or deadline aborts the run at the next round barrier.
func SSSP(ctx context.Context, fw Framework, d *Dataset, src graphit.VertexID) RunResult {
	switch fw {
	case FwUnordered:
		return timed(func() (graphit.Stats, error) {
			r, err := algo.BellmanFordContext(ctx, d.Graph, src, graphit.DefaultSchedule())
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	case FwGalois:
		sched, _ := ssspSchedule(fw, d)
		return timed(func() (graphit.Stats, error) {
			r, err := algo.SSSPApproxContext(ctx, d.Graph, src, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	default:
		sched, ok := ssspSchedule(fw, d)
		if !ok {
			return unsupported()
		}
		return ssspRun(ctx, d, src, sched)
	}
}

// ssspRun times one ∆-stepping run of d from src under sched.
func ssspRun(ctx context.Context, d *Dataset, src graphit.VertexID, sched graphit.Schedule) RunResult {
	return timed(func() (graphit.Stats, error) {
		r, err := algo.SSSPContext(ctx, d.Graph, src, sched)
		if err != nil {
			return graphit.Stats{}, err
		}
		return r.Stats, nil
	})
}

// PPSP runs point-to-point shortest path under fw's strategy.
func PPSP(ctx context.Context, fw Framework, d *Dataset, src, dst graphit.VertexID) RunResult {
	switch fw {
	case FwUnordered:
		// Unordered frameworks have no early termination: a full
		// Bellman-Ford answers the query (paper Table 4 reuses SSSP times).
		return SSSP(ctx, fw, d, src)
	case FwGalois:
		sched, _ := ssspSchedule(fw, d)
		return timed(func() (graphit.Stats, error) {
			r, err := algo.PPSPApproxContext(ctx, d.Graph, src, dst, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	default:
		sched, ok := ssspSchedule(fw, d)
		if !ok {
			return unsupported()
		}
		return timed(func() (graphit.Stats, error) {
			r, err := algo.PPSPContext(ctx, d.Graph, src, dst, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	}
}

// WBFS runs weighted BFS (∆=1) on the log-weighted variant of d. Galois
// provides no wBFS (paper Table 4).
func WBFS(ctx context.Context, fw Framework, d *Dataset, src graphit.VertexID) RunResult {
	g, err := d.LogWeighted()
	if err != nil {
		return RunResult{Err: err}
	}
	switch fw {
	case FwGalois:
		return unsupported()
	case FwUnordered:
		return timed(func() (graphit.Stats, error) {
			r, err := algo.BellmanFordContext(ctx, g, src, graphit.DefaultSchedule())
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	}
	var strategy string
	switch fw {
	case FwGraphIt:
		strategy = "eager_with_fusion"
	case FwGAPBS:
		strategy = "eager_no_fusion"
	case FwJulienne:
		strategy = "lazy"
	}
	sched := graphit.DefaultSchedule().ConfigApplyPriorityUpdate(strategy)
	return timed(func() (graphit.Stats, error) {
		r, err := algo.WBFSContext(ctx, g, src, sched)
		if err != nil {
			return graphit.Stats{}, err
		}
		return r.Stats, nil
	})
}

// AStar runs A* search (road datasets only; they carry coordinates).
func AStar(ctx context.Context, fw Framework, d *Dataset, src, dst graphit.VertexID) RunResult {
	if !d.Graph.HasCoords() {
		return unsupported()
	}
	switch fw {
	case FwUnordered:
		return SSSP(ctx, fw, d, src)
	case FwGalois:
		sched, _ := ssspSchedule(fw, d)
		return timed(func() (graphit.Stats, error) {
			r, err := algo.AStarApproxContext(ctx, d.Graph, src, dst, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	default:
		sched, ok := ssspSchedule(fw, d)
		if !ok {
			return unsupported()
		}
		return timed(func() (graphit.Stats, error) {
			r, err := algo.AStarContext(ctx, d.Graph, src, dst, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	}
}

// KCore runs k-core decomposition. GAPBS and Galois do not provide k-core
// (paper Table 4); the unordered baseline is full-rescan peeling.
func KCore(ctx context.Context, fw Framework, d *Dataset) RunResult {
	g, err := d.Symmetrized()
	if err != nil {
		return RunResult{Err: err}
	}
	switch fw {
	case FwGAPBS, FwGalois:
		return unsupported()
	case FwUnordered:
		return timed(func() (graphit.Stats, error) {
			r, err := algo.UnorderedKCoreContext(ctx, g, graphit.DefaultSchedule())
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	default:
		// GraphIt's best schedule is lazy with the constant-sum histogram
		// (Table 7); Julienne runs the same, with its default 128 buckets.
		return timed(func() (graphit.Stats, error) {
			r, err := algo.KCoreContext(ctx, g, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy_constant_sum"))
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	}
}

// SetCover runs approximate set cover (GraphIt and Julienne only, as in
// the paper).
func SetCover(ctx context.Context, fw Framework, d *Dataset) RunResult {
	g, err := d.Symmetrized()
	if err != nil {
		return RunResult{Err: err}
	}
	switch fw {
	case FwGraphIt, FwJulienne:
		sched := graphit.DefaultSchedule()
		if fw == FwJulienne {
			sched = sched.ConfigNumBuckets(64)
		}
		return timed(func() (graphit.Stats, error) {
			r, err := algo.SetCoverContext(ctx, g, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
	default:
		return unsupported()
	}
}
