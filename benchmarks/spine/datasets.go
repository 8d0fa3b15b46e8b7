package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"graphit/internal/gen"
	"graphit/internal/graph"
)

// scale holds every size knob, so the smoke test runs the same code paths at
// toy size. The full-scale values are part of the workload definitions.
type scale struct {
	roadRows, roadCols int
	rmatScale, rmatEF  int
	// hotKeys is social_hot's working set in vertices (two algorithms each,
	// so twice as many cache keys); cacheEntries is the server's cache.
	hotKeys, cacheEntries int
	warmup                time.Duration
	// setupReps is how many times set-up is repeated; setup_s is the median.
	// One set-up is a single 0.3-2 s sample; the driver contract asks for
	// several per run so that setup_s is steady enough to gate.
	setupReps int
	// verifySources x verifyPerSource answer-checking queries follow each
	// measured window; one reference run per source serves them all.
	verifySources, verifyPerSource int
	drillBatches                   int
	// Fixed request counts of the single-client traced passes.
	tracedRoad, tracedHot, tracedChurnQueries int
	suiteTracePasses                          int
	probeReps                                 int
	probeIDs                                  int
	barrierIters                              int
	compactOps                                int
	walProbeAppends                           int
}

var fullScale = scale{
	roadRows: 350, roadCols: 350,
	rmatScale: 17, rmatEF: 12,
	hotKeys: 4096, cacheEntries: 1024,
	warmup:        3 * time.Second,
	setupReps:     3,
	verifySources: 8, verifyPerSource: 8,
	drillBatches: 1600,
	tracedRoad:   300, tracedHot: 120, tracedChurnQueries: 50,
	suiteTracePasses: 3,
	probeReps:        5,
	probeIDs:         1 << 18,
	barrierIters:     10000,
	compactOps:       16384,
	walProbeAppends:  100,
}

var toyScale = scale{
	roadRows: 40, roadCols: 40,
	rmatScale: 10, rmatEF: 12,
	hotKeys: 256, cacheEntries: 64,
	warmup:        50 * time.Millisecond,
	setupReps:     1,
	verifySources: 2, verifyPerSource: 4,
	drillBatches: 20,
	tracedRoad:   24, tracedHot: 24, tracedChurnQueries: 8,
	suiteTracePasses: 1,
	probeReps:        1,
	probeIDs:         1 << 10,
	barrierIters:     100,
	compactOps:       256,
	walProbeAppends:  5,
}

// Generator seeds are part of the workload definitions, not of -seed.
const (
	roadSeed      = 303
	socialSeed    = 202
	logWeightSeed = 7
	hotSetSeed    = 11
	drillSeed     = 404
	suiteSeed     = 505
)

func buildRoad(sc scale) (*graph.Graph, error) {
	return gen.Road(gen.RoadOptions{Rows: sc.roadRows, Cols: sc.roadCols, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: roadSeed})
}

func buildSocial(sc scale) (*graph.Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(sc.rmatScale, sc.rmatEF, socialSeed))
}

// suiteGraphs are paper_suite's inputs: the two base graphs plus the derived
// copies k-core/SetCover (symmetric) and wBFS (log weights) need.
type suiteGraphs struct {
	road, social, socialSym, socialLog *graph.Graph
	genRoad, genRMAT, symmetrize       time.Duration
}

func buildSuiteGraphs(sc scale) (*suiteGraphs, error) {
	var sg suiteGraphs
	var err error
	t := time.Now()
	if sg.road, err = buildRoad(sc); err != nil {
		return nil, fmt.Errorf("road graph: %w", err)
	}
	sg.genRoad = time.Since(t)
	t = time.Now()
	if sg.social, err = buildSocial(sc); err != nil {
		return nil, fmt.Errorf("social graph: %w", err)
	}
	sg.genRMAT = time.Since(t)
	t = time.Now()
	if sg.socialSym, err = sg.social.Symmetrized(); err != nil {
		return nil, fmt.Errorf("symmetrizing social graph: %w", err)
	}
	sg.symmetrize = time.Since(t)
	sg.socialLog = graph.Clone(sg.social)
	gen.LogWeights(sg.socialLog, logWeightSeed)
	return &sg, nil
}

// hotCandidates is social_hot's fixed working set: k vertices with at least
// one out-edge, drawn by a generator seed so that every -seed ranks the same
// vertices (only their popularity order and the draw sequence change).
func hotCandidates(g *graph.Graph, k int) []uint32 {
	var with []uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(uint32(v)) > 0 {
			with = append(with, uint32(v))
		}
	}
	r := rand.New(rand.NewPCG(hotSetSeed, 0))
	r.Shuffle(len(with), func(i, j int) { with[i], with[j] = with[j], with[i] })
	if len(with) > k {
		with = with[:k]
	}
	return with
}
