package algo

import (
	"context"
	"fmt"
	"strings"

	"graphit"
)

// ResultKind tells a caller how to interpret a QueryResult — which fields
// are populated and what a summary should report.
type ResultKind int

const (
	// KindDist: Values is a distance vector (Unreached = unreachable).
	KindDist ResultKind = iota
	// KindPair: Values is a distance vector but only Values[dst] is the
	// answer (early-terminating point-to-point searches).
	KindPair
	// KindCoreness: Values is a coreness vector.
	KindCoreness
	// KindCover: NumChosen is the cover size; Values is nil.
	KindCover
)

// QueryResult is the kind-tagged union of the algorithm result types, the
// uniform shape the CLI and the graphd server consume.
type QueryResult struct {
	// Values is the per-vertex output vector (distances or coreness); nil
	// for KindCover.
	Values []int64
	// NumChosen is the set-cover size (KindCover only).
	NumChosen int
	// Stats are the engine's execution counters (partial after a contained
	// fault or cancellation).
	Stats graphit.Stats
}

// Spec describes one runnable algorithm: its input requirements, result
// shape, entry point, and sequential reference. The requirement flags let a
// dispatcher reject an unsatisfiable request before admitting it to the
// engine.
type Spec struct {
	Name string
	Kind ResultKind
	// NeedsDst / NeedsWeights / NeedsCoords / NeedsSymmetric gate the
	// request and graph shapes the algorithm accepts.
	NeedsDst       bool
	NeedsWeights   bool
	NeedsCoords    bool
	NeedsSymmetric bool
	// Exact reports that Run's output must equal Ref's for any valid
	// schedule with ∆=1 (approximation-free algorithms). SetCover and the
	// approx variants trade exactness for speed, so their Ref is a quality
	// baseline, not an equality oracle.
	Exact bool
	// Run executes the algorithm under ctx and sched. Like the underlying
	// wrappers, it returns a non-nil partial result together with the error
	// after a contained fault or cancellation.
	Run func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*QueryResult, error)
	// RunMulti, when non-nil, executes k source lanes as one shared engine
	// run and returns one result per lane, each element-wise equal to the
	// corresponding single-source Run. Algorithms that ignore dst accept a
	// nil dsts slice; pair algorithms require len(dsts) == len(srcs). Only
	// lazy schedules are supported — dispatchers must gate on the schedule
	// before batching lanes together.
	RunMulti func(ctx context.Context, g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) ([]*QueryResult, error)
	// Ref is the sequential reference implementation (nil Stats).
	Ref func(g *graphit.Graph, src, dst graphit.VertexID) (*QueryResult, error)
}

// specs is the registry, in the order the CLI documents.
var specs = []*Spec{
	{
		Name: "sssp", Kind: KindDist, NeedsWeights: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromSSSP(SSSPContext(ctx, g, src, sched))
		},
		RunMulti: func(ctx context.Context, g *graphit.Graph, srcs, _ []graphit.VertexID, sched graphit.Schedule) ([]*QueryResult, error) {
			return fromSSSPMulti(SSSPMultiContext(ctx, g, srcs, sched))
		},
		Ref: refDijkstra,
	},
	{
		Name: "wbfs", Kind: KindDist, NeedsWeights: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromSSSP(WBFSContext(ctx, g, src, sched))
		},
		RunMulti: func(ctx context.Context, g *graphit.Graph, srcs, _ []graphit.VertexID, sched graphit.Schedule) ([]*QueryResult, error) {
			return fromSSSPMulti(WBFSMultiContext(ctx, g, srcs, sched))
		},
		Ref: refDijkstra,
	},
	{
		Name: "ppsp", Kind: KindPair, NeedsWeights: true, NeedsDst: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromSSSP(PPSPContext(ctx, g, src, dst, sched))
		},
		RunMulti: func(ctx context.Context, g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) ([]*QueryResult, error) {
			return fromSSSPMulti(PPSPMultiContext(ctx, g, srcs, dsts, sched))
		},
		Ref: refDijkstra,
	},
	{
		Name: "astar", Kind: KindPair, NeedsWeights: true, NeedsCoords: true, NeedsDst: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			res, err := AStarContext(ctx, g, src, dst, sched)
			if res == nil {
				return nil, err
			}
			return &QueryResult{Values: res.Dist, Stats: res.Stats}, err
		},
		Ref: refDijkstra,
	},
	{
		Name: "kcore", Kind: KindCoreness, NeedsSymmetric: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, _, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromKCore(KCoreContext(ctx, g, sched))
		},
		Ref: refKCore,
	},
	{
		Name: "setcover", Kind: KindCover, NeedsSymmetric: true,
		Run: func(ctx context.Context, g *graphit.Graph, _, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			res, err := SetCoverContext(ctx, g, sched)
			if res == nil {
				return nil, err
			}
			return &QueryResult{NumChosen: res.NumChosen, Stats: res.Stats}, err
		},
		Ref: func(g *graphit.Graph, _, _ graphit.VertexID) (*QueryResult, error) {
			_, n, err := GreedySetCover(g)
			if err != nil {
				return nil, err
			}
			return &QueryResult{NumChosen: n}, nil
		},
	},
	{
		Name: "bellmanford", Kind: KindDist, NeedsWeights: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromSSSP(BellmanFordContext(ctx, g, src, sched))
		},
		Ref: refDijkstra,
	},
	{
		Name: "kcore-unordered", Kind: KindCoreness, NeedsSymmetric: true, Exact: true,
		Run: func(ctx context.Context, g *graphit.Graph, _, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromKCore(UnorderedKCoreContext(ctx, g, sched))
		},
		Ref: refKCore,
	},
	{
		Name: "sssp-approx", Kind: KindDist, NeedsWeights: true,
		Run: func(ctx context.Context, g *graphit.Graph, src, _ graphit.VertexID, sched graphit.Schedule) (*QueryResult, error) {
			return fromSSSP(SSSPApproxContext(ctx, g, src, sched))
		},
		Ref: refDijkstra,
	},
}

func fromSSSP(res *SSSPResult, err error) (*QueryResult, error) {
	if res == nil {
		return nil, err
	}
	return &QueryResult{Values: res.Dist, Stats: res.Stats}, err
}

func fromSSSPMulti(res []*SSSPResult, err error) ([]*QueryResult, error) {
	if res == nil {
		return nil, err
	}
	out := make([]*QueryResult, len(res))
	for l, r := range res {
		out[l] = &QueryResult{Values: r.Dist, Stats: r.Stats}
	}
	return out, err
}

func fromKCore(res *KCoreResult, err error) (*QueryResult, error) {
	if res == nil {
		return nil, err
	}
	return &QueryResult{Values: res.Coreness, Stats: res.Stats}, err
}

func refDijkstra(g *graphit.Graph, src, _ graphit.VertexID) (*QueryResult, error) {
	dist, err := Dijkstra(g, src)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Values: dist}, nil
}

func refKCore(g *graphit.Graph, _, _ graphit.VertexID) (*QueryResult, error) {
	core, err := RefKCore(g)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Values: core}, nil
}

// Names returns every registered algorithm name, in registry order.
func Names() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}

// Lookup resolves an algorithm name; an unknown name yields an error
// listing the valid options (the one spelling of this error shared by every
// binary).
func Lookup(name string) (*Spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("algo: unknown algorithm %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// CheckGraph verifies that g satisfies the spec's graph requirements,
// returning a request-level (not engine-level) error when it does not.
func (sp *Spec) CheckGraph(g *graphit.Graph) error {
	if sp.NeedsWeights && !g.Weighted() {
		return fmt.Errorf("algo: %s requires a weighted graph", sp.Name)
	}
	if sp.NeedsCoords && !g.HasCoords() {
		return fmt.Errorf("algo: %s requires vertex coordinates", sp.Name)
	}
	if sp.NeedsSymmetric && !g.Symmetric() {
		return fmt.Errorf("algo: %s requires a symmetrized graph", sp.Name)
	}
	return nil
}
