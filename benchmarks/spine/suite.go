package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/graph"
)

// suiteSources is how many fixed sources each graph's cells cycle through.
const suiteSources = 8

// cellOut is what one cell run produced, kept from the warm-up pass for the
// correctness check.
type cellOut struct {
	values []int64
	cover  int
	stats  graphit.Stats
}

// cell is one entry of paper_suite's fixed list: an algorithm under its
// schedule on a graph, or a compiled DSL program.
type cell struct {
	name string
	// layer is where a traced run's span files the cell: core or lang.
	layer string
	g     *graph.Graph
	// srcs/dsts are the cell's fixed endpoints, cycled by run index.
	srcs, dsts []uint32
	run        func(src, dst uint32) (cellOut, error)
	// check validates the output of a run from (src, dst); outs holds every
	// cell's output from the same run index, for DSL-vs-algo parity.
	check func(src, dst uint32, out cellOut, outs map[string]cellOut) error
}

func schedule(strategy string, delta int64) graphit.Schedule {
	return graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate(strategy).
		ConfigApplyPriorityUpdateDelta(delta).
		ConfigNumWorkers(workers)
}

// algoCell builds a registry cell checked against the registry's reference.
func algoCell(name, algoName string, g *graph.Graph, sched graphit.Schedule, srcs, dsts []uint32) (cell, error) {
	sp, err := algo.Lookup(algoName)
	if err != nil {
		return cell{}, err
	}
	if err := sp.CheckGraph(g); err != nil {
		return cell{}, fmt.Errorf("%s: %w", name, err)
	}
	c := cell{name: name, layer: "core", g: g, srcs: srcs, dsts: dsts}
	c.run = func(src, dst uint32) (cellOut, error) {
		res, err := sp.Run(context.Background(), g, src, dst, sched)
		if err != nil {
			return cellOut{}, fmt.Errorf("%s: %w", name, err)
		}
		return cellOut{values: res.Values, cover: res.NumChosen, stats: res.Stats}, nil
	}
	c.check = func(src, dst uint32, out cellOut, _ map[string]cellOut) error {
		ref, err := sp.Ref(g, src, dst)
		if err != nil {
			return err
		}
		switch sp.Kind {
		case algo.KindCover:
			return checkCover(name, g, sched, ref.NumChosen, out.cover)
		case algo.KindPair:
			if out.values[dst] != ref.Values[dst] {
				return fmt.Errorf("%s %d->%d: got %d, want %d", name, src, dst, out.values[dst], ref.Values[dst])
			}
			return nil
		}
		if !slices.Equal(out.values, ref.Values) {
			return fmt.Errorf("%s from %d differs from the reference", name, src)
		}
		return nil
	}
	return c, nil
}

// checkCover checks the size of the timed run's cover (got sets) against
// 1.5x the sequential greedy's. The registry's result has no membership
// vector, so validity is checked on a rerun through SetCover's own entry
// point, held to the same size limit; two runs may differ by a set or two,
// which is why the sizes are not required to be equal.
func checkCover(name string, g *graph.Graph, sched graphit.Schedule, greedy, got int) error {
	res, err := algo.SetCoverContext(context.Background(), g, sched)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, size := range []int{got, res.NumChosen} {
		if size < 1 || 2*size > 3*greedy {
			return fmt.Errorf("%s: cover of %d sets, greedy needs %d", name, size, greedy)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		covered := res.Chosen[v]
		for _, u := range g.OutNeigh(uint32(v)) {
			covered = covered || res.Chosen[u]
		}
		if !covered {
			return fmt.Errorf("%s: vertex %d is not covered", name, v)
		}
	}
	return nil
}

// dslCell compiles a testdata/dsl program, gives it the schedule of the algo
// cell it must agree with, and checks its result vector against that cell's.
func dslCell(name, file, vector, strategy string, delta int64, twin string, g *graph.Graph, srcs []uint32, o runOpts) (cell, error) {
	plan, err := graphit.CompileDSLFile(filepath.Join(o.dslDir, file))
	if err != nil {
		return cell{}, err
	}
	text := fmt.Sprintf("program->configApplyPriorityUpdate(\"s1\", %q)", strategy)
	if delta > 1 {
		text += fmt.Sprintf("->configApplyPriorityUpdateDelta(\"s1\", \"%d\")", delta)
	}
	if err := plan.ApplySchedule(text + ";"); err != nil {
		return cell{}, fmt.Errorf("%s: %w", name, err)
	}
	c := cell{name: name, layer: "lang", g: g, srcs: srcs}
	c.run = func(src, _ uint32) (cellOut, error) {
		res, err := plan.Execute(graphit.ExecOptions{Graph: g, Argv: []string{file, "-", strconv.FormatUint(uint64(src), 10)}})
		if err != nil {
			return cellOut{}, fmt.Errorf("%s: %w", name, err)
		}
		return cellOut{values: res.Vectors[vector], stats: res.Stats}, nil
	}
	c.check = func(src, _ uint32, out cellOut, outs map[string]cellOut) error {
		if !slices.Equal(out.values, outs[twin].values) {
			return fmt.Errorf("%s from %d differs from %s", name, src, twin)
		}
		return nil
	}
	return c, nil
}

// fixedSources draws the suite's endpoints from a generator seed: vertices
// with out-edges, so no cell degenerates to an empty run.
func fixedSources(g *graph.Graph, id uint64) []uint32 {
	r := streamRand(suiteSeed, id)
	out := make([]uint32, 0, suiteSources)
	for len(out) < suiteSources {
		if v := r.Uint32N(uint32(g.NumVertices())); g.OutDegree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// suiteCells is the fixed cell list: the six ordered algorithms on the road
// grid, six cells on the social graph (its symmetrized copy for
// k-core/SetCover, its log-weight copy for wBFS), and two DSL programs, each
// under the schedule of the algo cell it must agree with.
func suiteCells(sg *suiteGraphs, o runOpts) ([]cell, error) {
	roadSrc, roadDst := fixedSources(sg.road, 0), fixedSources(sg.road, 1)
	socSrc, socDst := fixedSources(sg.social, 2), fixedSources(sg.social, 3)
	var cells []cell
	var errs []error
	add := func(c cell, err error) {
		cells = append(cells, c)
		errs = append(errs, err)
	}
	add(algoCell("road/sssp/eager_with_fusion", "sssp", sg.road, schedule("eager_with_fusion", roadDelta), roadSrc, nil))
	add(algoCell("road/sssp/eager_no_fusion", "sssp", sg.road, schedule("eager_no_fusion", roadDelta), roadSrc, nil))
	add(algoCell("road/ppsp/eager_with_fusion", "ppsp", sg.road, schedule("eager_with_fusion", roadDelta), roadSrc, roadDst))
	add(algoCell("road/astar/eager_with_fusion", "astar", sg.road, schedule("eager_with_fusion", roadDelta), roadSrc, roadDst))
	add(algoCell("road/kcore/lazy_constant_sum", "kcore", sg.road, schedule("lazy_constant_sum", 1), roadSrc, nil))
	add(algoCell("road/setcover/lazy", "setcover", sg.road, schedule("lazy", 1), roadSrc, nil))
	add(algoCell("social/sssp/eager_with_fusion", "sssp", sg.social, schedule("eager_with_fusion", socialDelta), socSrc, nil))
	add(algoCell("social/sssp/lazy", "sssp", sg.social, schedule("lazy", socialDelta), socSrc, nil))
	add(algoCell("social/ppsp/lazy", "ppsp", sg.social, schedule("lazy", socialDelta), socSrc, socDst))
	add(algoCell("social/wbfs/lazy", "wbfs", sg.socialLog, schedule("lazy", 1), socSrc, nil))
	add(algoCell("social/kcore/lazy_constant_sum", "kcore", sg.socialSym, schedule("lazy_constant_sum", 1), socSrc, nil))
	add(algoCell("social/setcover/lazy", "setcover", sg.socialSym, schedule("lazy", 1), socSrc, nil))
	add(dslCell("dsl/sssp.gt/road", "sssp.gt", "dist", "eager_with_fusion", roadDelta, "road/sssp/eager_with_fusion", sg.road, roadSrc, o))
	add(dslCell("dsl/kcore.gt/social", "kcore.gt", "D", "lazy_constant_sum", 1, "social/kcore/lazy_constant_sum", sg.socialSym, socSrc, o))
	return cells, errors.Join(errs...)
}

// endpoints returns the cell's (src, dst) for run index i.
func (c *cell) endpoints(i int) (uint32, uint32) {
	src := c.srcs[i%len(c.srcs)]
	if c.dsts == nil {
		return src, 0
	}
	return src, c.dsts[i%len(c.dsts)]
}

// suitePass runs every cell once at run index i, in the given order, and
// returns each cell's wall time and output.
func suitePass(cells []cell, order []int, i int, each func(ci int, d time.Duration, out cellOut)) error {
	for _, ci := range order {
		c := &cells[ci]
		src, dst := c.endpoints(i)
		t := time.Now()
		out, err := c.run(src, dst)
		if err != nil {
			return err
		}
		each(ci, time.Since(t), out)
	}
	return nil
}

// runSuite measures paper_suite: no HTTP, a serial round-robin over the cell
// list. -seed picks the pass order and where the source cycle starts; the
// sources themselves are fixed so every seed does the same work.
func runSuite(o runOpts) (*result, error) {
	res := newResult(o.workload, 0, o.seed, o.seconds, o.sc.warmup)
	var sg *suiteGraphs
	var cells []cell
	var setups []float64
	for rep := 0; rep < o.sc.setupReps; rep++ {
		t := time.Now()
		var err error
		if sg, err = buildSuiteGraphs(o.sc); err != nil {
			return nil, err
		}
		if cells, err = suiteCells(sg, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.set("setup_s", median(setups))

	r := streamRand(o.seed, 0)
	order := r.Perm(len(cells))
	first := r.IntN(suiteSources)

	// Warm-up: at least one full pass, whose outputs feed the checks (a DSL
	// cell is compared with its twin's output of the same run index).
	outs := map[string]cellOut{}
	chk := &checker{}
	warmStart := time.Now()
	for pass := 0; pass == 0 || time.Since(warmStart) < o.sc.warmup; pass++ {
		err := suitePass(cells, order, first, func(ci int, _ time.Duration, out cellOut) {
			if pass == 0 {
				outs[cells[ci].name] = out
			}
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range cells {
		c := &cells[i]
		src, dst := c.endpoints(first)
		chk.note(c.check(src, dst, outs[c.name], outs))
	}

	times := make([][]float64, len(cells))
	runs := 0
	start := time.Now()
	for pass := 1; time.Since(start) < o.seconds; pass++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		err := suitePass(cells, order, first+pass, func(ci int, d time.Duration, _ cellOut) {
			times[ci] = append(times[ci], ms(d))
			runs++
			chk.note(nil)
		})
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	medians := make([]float64, len(cells))
	for i, c := range cells {
		medians[i] = median(times[i])
		res.Samples["cell:"+c.name] = len(times[i])
		res.info("cell_ms:"+c.name, "ms", medians[i])
	}
	// The cells differ by 50x, so percentiles over all runs would land on the
	// seam between two cells' samples; percentiles over the cells' medians
	// are a fixed blend of the same two cells every time.
	res.Samples["query"] = runs
	res.set("queries_per_s", float64(runs)/elapsed.Seconds())
	res.set("suite_geomean_ms", geomean(medians))
	sort.Float64s(medians)
	res.set("query_p50_ms", quantile(medians, 0.5))
	res.set("query_p90_ms", quantile(medians, 0.9))
	res.absorb(chk)
	return res, finishRSS(res)
}
