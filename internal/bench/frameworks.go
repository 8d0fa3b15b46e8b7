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

// Algorithm names one row family of the paper's tables.
type Algorithm string

const (
	SSSP     Algorithm = "SSSP"
	PPSP     Algorithm = "PPSP"
	WBFS     Algorithm = "wBFS†"
	AStar    Algorithm = "A*"
	KCore    Algorithm = "k-core"
	SetCover Algorithm = "SetCover"
)

// cellDef is one catalogue entry: the spec that runs it, the graph
// variant it runs on, and its schedule.
type cellDef struct {
	spec    *algo.Spec
	variant Variant
	sched   graphit.Schedule
	tuned   bool // run at the dataset's hand-tuned ∆ (BestDeltaExp)
}

// cell is a catalogue entry resolved for one dataset.
type cell struct {
	cellDef
	d *Dataset
}

type cellKey struct {
	fw  Framework
	alg Algorithm
}

func spec(name string) *algo.Spec {
	sp, err := algo.Lookup(name)
	if err != nil {
		panic(err) // the catalogue names a spec the registry lost
	}
	return sp
}

func strategy(s string) graphit.Schedule {
	return graphit.DefaultSchedule().ConfigApplyPriorityUpdate(s)
}

var (
	fusion   = strategy("eager_with_fusion")
	noFusion = strategy("eager_no_fusion")
	lazy     = strategy("lazy")
	// GraphIt's best k-core schedule is lazy with the constant-sum
	// histogram (Table 7); Julienne runs the same, with its default 128
	// buckets.
	constSum = strategy("lazy_constant_sum")
	defaults = graphit.DefaultSchedule()
)

// Galois's PPSP and A* stop early under approximate ordering. graphd does
// not serve them, so they are specs of this catalogue only, not registry
// entries; their answers bound the reference distance from above.
var (
	ppspApprox = &algo.Spec{Name: "ppsp-approx", Kind: algo.KindPair, NeedsWeights: true, NeedsDst: true, Ref: spec("ppsp").Ref,
		Run: func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*algo.QueryResult, error) {
			res, err := algo.PPSPApproxContext(ctx, g, src, dst, sched)
			if res == nil {
				return nil, err
			}
			return &algo.QueryResult{Values: res.Dist, Stats: res.Stats}, err
		}}
	astarApprox = &algo.Spec{Name: "astar-approx", Kind: algo.KindPair, NeedsWeights: true, NeedsCoords: true, NeedsDst: true, Ref: spec("astar").Ref,
		Run: func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*algo.QueryResult, error) {
			res, err := algo.AStarApproxContext(ctx, g, src, dst, sched)
			if res == nil {
				return nil, err
			}
			return &algo.QueryResult{Values: res.Dist, Stats: res.Stats}, err
		}}
)

// catalogue maps (framework, algorithm) to what that framework runs. A
// pair missing here is one the original system does not provide: the gray
// cells of Figure 4 and the dashes of Table 4. Unordered frameworks have
// no early termination, so a full Bellman-Ford answers their PPSP and A*
// queries (paper Table 4 reuses the SSSP times).
var catalogue = map[cellKey]cellDef{
	{FwGraphIt, SSSP}:      {spec("sssp"), Base, fusion, true},
	{FwGAPBS, SSSP}:        {spec("sssp"), Base, noFusion, true},
	{FwJulienne, SSSP}:     {spec("sssp"), Base, lazy, true},
	{FwGalois, SSSP}:       {spec("sssp-approx"), Base, defaults, true},
	{FwUnordered, SSSP}:    {spec("bellmanford"), Base, defaults, false},
	{FwGraphIt, PPSP}:      {spec("ppsp"), Base, fusion, true},
	{FwGAPBS, PPSP}:        {spec("ppsp"), Base, noFusion, true},
	{FwJulienne, PPSP}:     {spec("ppsp"), Base, lazy, true},
	{FwGalois, PPSP}:       {ppspApprox, Base, defaults, true},
	{FwUnordered, PPSP}:    {spec("bellmanford"), Base, defaults, false},
	{FwGraphIt, WBFS}:      {spec("wbfs"), LogWeighted, fusion, false},
	{FwGAPBS, WBFS}:        {spec("wbfs"), LogWeighted, noFusion, false},
	{FwJulienne, WBFS}:     {spec("wbfs"), LogWeighted, lazy, false},
	{FwUnordered, WBFS}:    {spec("bellmanford"), LogWeighted, defaults, false},
	{FwGraphIt, AStar}:     {spec("astar"), Base, fusion, true},
	{FwGAPBS, AStar}:       {spec("astar"), Base, noFusion, true},
	{FwJulienne, AStar}:    {spec("astar"), Base, lazy, true},
	{FwGalois, AStar}:      {astarApprox, Base, defaults, true},
	{FwUnordered, AStar}:   {spec("bellmanford"), Base, defaults, false},
	{FwGraphIt, KCore}:     {spec("kcore"), Symmetrized, constSum, false},
	{FwJulienne, KCore}:    {spec("kcore"), Symmetrized, constSum, false},
	{FwUnordered, KCore}:   {spec("kcore-unordered"), Symmetrized, defaults, false},
	{FwGraphIt, SetCover}:  {spec("setcover"), Symmetrized, defaults, false},
	{FwJulienne, SetCover}: {spec("setcover"), Symmetrized, defaults.ConfigNumBuckets(64), false},
}

// lookup resolves (fw, alg) on d; ok is false when fw does not provide alg.
func lookup(fw Framework, alg Algorithm, d *Dataset) (cell, bool) {
	def, ok := catalogue[cellKey{fw, alg}]
	if !ok {
		return cell{}, false
	}
	c := cell{def, d}
	if c.tuned {
		c.sched = c.sched.ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp)
	}
	return c, true
}

// RunResult is one timed algorithm run.
type RunResult struct {
	Time  time.Duration
	Stats graphit.Stats
	// Result is the run's answer (nil when the run failed to start).
	Result *algo.QueryResult
	// Unsupported marks algorithm/framework pairs the original system does
	// not provide (gray cells in Figure 4, dashes in Table 4).
	Unsupported bool
	Err         error
}

// run times one query of c. Like every run here, it threads ctx down to
// the engine, so a cancellation or deadline aborts the run at the next
// round barrier.
func (c cell) run(ctx context.Context, src, dst graphit.VertexID) RunResult {
	g, err := c.d.As(c.variant)
	if err != nil {
		return RunResult{Err: err}
	}
	start := time.Now()
	res, err := c.spec.Run(ctx, g, src, dst, c.sched)
	r := RunResult{Time: time.Since(start), Result: res, Err: err}
	if res != nil {
		r.Stats = res.Stats
	}
	return r
}

// measure runs fw's alg on d over the scale's standard queries and
// averages their times.
func measure(ctx context.Context, fw Framework, alg Algorithm, d *Dataset, s Scale) RunResult {
	c, ok := lookup(fw, alg, d)
	if !ok {
		return RunResult{Unsupported: true}
	}
	var rs []RunResult
	for _, q := range queries(alg, d, s) {
		rs = append(rs, c.run(ctx, q[0], q[1]))
	}
	return average(rs)
}

// queries returns the (src, dst) queries one measurement of alg runs on d:
// numTrials deterministic pairs for the shortest-path family (SSSP and
// wBFS ignore dst), one whole-graph run for k-core and SetCover.
func queries(alg Algorithm, d *Dataset, s Scale) [][2]graphit.VertexID {
	if alg == KCore || alg == SetCover {
		return [][2]graphit.VertexID{{0, 0}}
	}
	return pairs(d, numTrials(s))
}
