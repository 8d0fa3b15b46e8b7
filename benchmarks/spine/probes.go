package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/bucket"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/parallel"
	"graphit/internal/wal"
)

// Each probe is reported by one workload's traced run: the one whose
// blocking path the probed layer sits on. Probe spans hang off the root.

// engineProbe runs name under sched from a fixed source sc.probeReps times
// with 2 workers and returns the median wall time and the last run's stats.
func engineProbe(o runOpts, tr *tracer, label, name string, g *graph.Graph, strategy string, delta int64, src uint32) (time.Duration, graphit.Stats, error) {
	sp, err := algo.Lookup(name)
	if err != nil {
		return 0, graphit.Stats{}, err
	}
	var walls []float64
	var stats graphit.Stats
	for rep := 0; rep < o.sc.probeReps; rep++ {
		var res *algo.QueryResult
		_, d := tr.timed(1, noReq, "core", label, func() {
			res, err = sp.Run(context.Background(), g, src, 0, schedule(strategy, delta))
		})
		if err != nil {
			return 0, stats, fmt.Errorf("%s: %w", label, err)
		}
		walls = append(walls, float64(d))
		stats = res.Stats
	}
	return time.Duration(median(walls)), stats, nil
}

func nsPerRelax(d time.Duration, st graphit.Stats) float64 {
	return ratio(float64(d.Nanoseconds()), float64(st.Relaxations))
}

// countsProbe reruns name with one worker, where the engine's counters repeat
// exactly, and reports them with the work ratio against the reference: the
// relaxations per edge a Dijkstra from the same source scans.
func countsProbe(res *result, name string, g *graph.Graph, strategy string, delta int64, src uint32) error {
	sp, err := algo.Lookup(name)
	if err != nil {
		return err
	}
	sched := schedule(strategy, delta).ConfigNumWorkers(1)
	out, err := sp.Run(context.Background(), g, src, 0, sched)
	if err != nil {
		return err
	}
	st := out.Stats
	res.set("core.rounds", float64(st.Rounds))
	res.set("core.fused_rounds", float64(st.FusedRounds))
	res.set("core.global_syncs", float64(st.GlobalSyncs))
	res.set("core.relaxations", float64(st.Relaxations))
	res.set("core.bucket_inserts", float64(st.BucketInserts))
	res.set("core.processed", float64(st.Processed))
	if sp.Kind != algo.KindDist {
		return nil
	}
	ref, err := sp.Ref(g, src, 0)
	if err != nil {
		return err
	}
	scanned := 0
	for v, d := range ref.Values {
		if d != graphit.Unreached {
			scanned += g.OutDegree(uint32(v))
		}
	}
	res.set("core.work_ratio_vs_dijkstra", ratio(float64(st.Relaxations), float64(scanned)))
	return nil
}

func probeRoad(o runOpts, res *result, tr *tracer, g *graph.Graph) error {
	src := fixedSources(g, 0)[0]
	fused, st, err := engineProbe(o, tr, "probe road sssp eager_with_fusion", "sssp", g, "eager_with_fusion", roadDelta, src)
	if err != nil {
		return err
	}
	res.set("core.eager_fusion_road_ns_per_relax", nsPerRelax(fused, st))
	res.set("core.us_per_round_road", ratio(us(fused), float64(st.Rounds)))
	plain, st, err := engineProbe(o, tr, "probe road sssp eager_no_fusion", "sssp", g, "eager_no_fusion", roadDelta, src)
	if err != nil {
		return err
	}
	res.set("core.eager_nofusion_road_ns_per_relax", nsPerRelax(plain, st))
	res.set("core.fusion_speedup_road", ratio(float64(plain), float64(fused)))
	if err := countsProbe(res, "sssp", g, "eager_with_fusion", roadDelta, src); err != nil {
		return err
	}
	probeBarrier(o, res, tr)
	probeEagerBins(o, res, tr)
	return nil
}

func probeSocial(o runOpts, res *result, tr *tracer, g *graph.Graph) error {
	srcs := fixedSources(g, 2)
	lazy, st, err := engineProbe(o, tr, "probe social sssp lazy", "sssp", g, socialStrategy, socialDelta, srcs[0])
	if err != nil {
		return err
	}
	res.set("core.lazy_social_ns_per_relax", nsPerRelax(lazy, st))
	eager, st, err := engineProbe(o, tr, "probe social sssp eager_with_fusion", "sssp", g, "eager_with_fusion", socialDelta, srcs[0])
	if err != nil {
		return err
	}
	res.set("core.eager_social_ns_per_relax", nsPerRelax(eager, st))

	// Eight lanes on one bucket structure: the batch stage's kernel.
	sp, err := algo.Lookup("sssp")
	if err != nil {
		return err
	}
	var perRelax []float64
	for rep := 0; rep < o.sc.probeReps; rep++ {
		var lanes []*algo.QueryResult
		_, d := tr.timed(1, noReq, "core", "probe social sssp lazy 8 lanes", func() {
			lanes, err = sp.RunMulti(context.Background(), g, srcs[:8], nil, schedule(socialStrategy, socialDelta))
		})
		if err != nil {
			return err
		}
		var relax int64
		for _, l := range lanes {
			relax += l.Stats.Relaxations
		}
		perRelax = append(perRelax, ratio(float64(d.Nanoseconds()), float64(relax)))
	}
	res.set("core.multi8_social_ns_per_relax", median(perRelax))
	if err := countsProbe(res, "sssp", g, socialStrategy, socialDelta, srcs[0]); err != nil {
		return err
	}
	probeLazyBuckets(o, res, tr)
	return nil
}

// probeBarrier times an empty parallel region on 2 workers: what every
// engine round pays before it does any work.
func probeBarrier(o runOpts, res *result, tr *tracer) {
	ex := parallel.NewExecutor(workers)
	defer ex.Close()
	lats := make([]float64, o.sc.barrierIters)
	tr.timed(1, noReq, "parallel", "probe Executor.Run empty body", func() {
		for i := range lats {
			t := time.Now()
			ex.Run(func(int) {})
			lats[i] = us(time.Since(t))
		}
	})
	res.set("parallel.barrier_us", median(lats))
}

// probePriorities is the seeded priority stream of the bucket probes: ids
// spread over 512 buckets, four times the lazy structure's open window.
func probePriorities(n int) []int64 {
	r := streamRand(suiteSeed, 9)
	prio := make([]int64, n)
	for i := range prio {
		prio[i] = r.Int64N(512)
	}
	return prio
}

func probeLazyBuckets(o runOpts, res *result, tr *tracer) {
	n := o.sc.probeIDs
	prio := probePriorities(n)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = bucket.NullBkt
	}
	lz := bucket.NewLazy(n, bucket.Increasing, 128, func(v uint32) int64 { return cur[v] })
	copy(cur, prio)
	_, d := tr.timed(1, noReq, "bucket", "probe Lazy.UpdateBuckets", func() { lz.UpdateBuckets(ids) })
	res.set("bucket.lazy_update_ns_per_id", ratio(float64(d.Nanoseconds()), float64(n)))
	_, d = tr.timed(1, noReq, "bucket", "probe Lazy.Next until empty", func() {
		for {
			b, vs := lz.Next()
			if b == bucket.NullBkt {
				return
			}
			for _, v := range vs {
				cur[v] = bucket.NullBkt // finalized: must not come back
			}
		}
	})
	res.set("bucket.lazy_next_ns_per_id", ratio(float64(d.Nanoseconds()), float64(n)))
}

func probeEagerBins(o runOpts, res *result, tr *tracer) {
	n := o.sc.probeIDs
	prio := probePriorities(n)
	var bins bucket.LocalBins
	taken := 0
	_, d := tr.timed(1, noReq, "bucket", "probe LocalBins Insert+Take", func() {
		for v, b := range prio {
			bins.Insert(b, uint32(v))
		}
		for b := bins.MinNonEmpty(0); b != bucket.NullBkt; b = bins.MinNonEmpty(b) {
			taken += len(bins.Take(b))
		}
	})
	res.set("bucket.eager_insert_take_ns_per_id", ratio(float64(d.Nanoseconds()), float64(taken)))
}

// probeChurn measures the mutation path's layers one call at a time.
func probeChurn(o runOpts, res *result, tr *tracer, g *graph.Graph, b *boundaries) (err error) {
	dir, cleanup, err := tempDir(o, "probe-")
	if err != nil {
		return err
	}
	defer cleanup()

	// The durable boundary copy has a log to checkpoint.
	_, d := tr.timed(1, noReq, "livegraph", "probe CheckpointNow", func() { err = b.durable.CheckpointNow() })
	if err != nil {
		return err
	}
	res.set("livegraph.checkpoint_ms", ms(d))

	// Snapshot I/O on the social graph: what a checkpoint writes and a
	// restart reads.
	bin := filepath.Join(dir, "social.bin")
	var writes, reads []float64
	for rep := 0; rep < o.sc.probeReps; rep++ {
		_, d := tr.timed(1, noReq, "graph", "probe WriteBinaryFile", func() { err = graph.WriteBinaryFile(bin, g) })
		if err != nil {
			return err
		}
		writes = append(writes, ms(d))
		_, d = tr.timed(1, noReq, "graph", "probe ReadBinary", func() { err = readBinary(bin) })
		if err != nil {
			return err
		}
		reads = append(reads, ms(d))
	}
	res.set("graph.write_binary_ms", median(writes))
	res.set("graph.read_binary_ms", median(reads))

	// Compaction at the default threshold: fill an overlay without letting
	// the background compactor at it, then fold it synchronously.
	log := drillLog(g, (o.sc.compactOps+reweightBatch-1)/reweightBatch)
	live := livegraph.New(socialGraph, g, livegraph.Config{CompactThreshold: 1 << 30})
	defer live.Close()
	for _, ops := range log {
		if _, err := live.ApplyBatch(ops); err != nil {
			return err
		}
	}
	_, d = tr.timed(1, noReq, "livegraph", "probe CompactNow", func() { err = live.CompactNow() })
	if err != nil {
		return err
	}
	res.set("livegraph.compact_ms", ms(d))

	const rounds = 200000
	_, d = tr.timed(1, noReq, "livegraph", "probe Acquire+Release", func() {
		for i := 0; i < rounds; i++ {
			live.Acquire().Release()
		}
	})
	res.set("livegraph.acquire_release_ns", float64(d.Nanoseconds())/rounds)
	encodes := rounds / reweightBatch
	_, d = tr.timed(1, noReq, "livegraph", "probe EncodeOps", func() {
		for i := 0; i < encodes; i++ {
			_ = livegraph.EncodeOps(log[i%len(log)])
		}
	})
	res.set("livegraph.encode_ops_ns_per_op", float64(d.Nanoseconds())/float64(encodes*reweightBatch))

	if err := probeWAL(o, res, tr, dir, log[0]); err != nil {
		return err
	}
	return probeReplay(o, res, tr, g, dir)
}

func readBinary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = graph.ReadBinary(f)
	return err
}

// openStore opens a fresh, ready store under dir.
func openStore(dir string, sync wal.SyncMode) (*wal.Store, error) {
	store, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		return nil, err
	}
	if err := store.Replay(wal.Pos{}, func(wal.Record) error { return nil }); err != nil {
		return nil, errors.Join(err, store.Close())
	}
	return store, nil
}

// probeWAL times appends of one 64-op payload with and without the fsync
// wait. The disk is the sandbox's: read these as this box's, not a device's.
func probeWAL(o runOpts, res *result, tr *tracer, dir string, ops []livegraph.Op) error {
	payload := livegraph.EncodeOps(ops)
	appendAll := func(sync wal.SyncMode) (float64, error) {
		store, err := openStore(filepath.Join(dir, "wal-"+sync.String()), sync)
		if err != nil {
			return 0, err
		}
		lats := make([]float64, 0, o.sc.walProbeAppends)
		for i := 0; i < o.sc.walProbeAppends && err == nil; i++ {
			_, d := tr.timed(1, noReq, "wal", "probe Append+WaitDurable sync="+sync.String(), func() {
				var pos wal.Pos
				if pos, err = store.Append(uint64(i+1), payload); err == nil {
					err = store.WaitDurable(pos)
				}
			})
			lats = append(lats, us(d))
		}
		return median(lats), errors.Join(err, store.Close())
	}
	nosync, err := appendAll(wal.SyncNone)
	if err != nil {
		return err
	}
	durable, err := appendAll(wal.SyncAlways)
	if err != nil {
		return err
	}
	res.set("wal.append_nosync_us", nosync)
	res.set("wal.append_durable_ms", durable/1e3)
	return nil
}

// probeReplay times Store.Replay over the recovery drill's log, decoding
// each record but applying none: the log layer's share of recovery_s.
func probeReplay(o runOpts, res *result, tr *tracer, g *graph.Graph, dir string) (err error) {
	log := drillLog(g, o.sc.drillBatches)
	data := filepath.Join(dir, "replay")
	if err := writeDrillLog(data, log); err != nil {
		return err
	}
	store, err := wal.Open(filepath.Join(data, socialGraph), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, store.Close()) }()
	ops := 0
	_, d := tr.timed(1, noReq, "wal", "probe Store.Replay drill log", func() {
		err = store.Replay(wal.Pos{}, func(rec wal.Record) error {
			batch, err := livegraph.DecodeOps(rec.Payload)
			ops += len(batch)
			return err
		})
	})
	if err != nil {
		return err
	}
	if want := len(log) * reweightBatch; ops != want {
		return fmt.Errorf("replayed %d ops of the drill log, want %d", ops, want)
	}
	res.set("wal.replay_ops_per_s", float64(ops)/d.Seconds())
	return nil
}

// tracedSuite runs a fixed number of passes over paper_suite's cells with a
// span per run, then the probes of the layers only the suite reaches.
func tracedSuite(o runOpts, res *result, tr *tracer, chk *checker) error {
	sg, err := buildSuiteGraphs(o.sc)
	if err != nil {
		return err
	}
	res.set("gen.road_s", sg.genRoad.Seconds())
	res.set("gen.rmat_s", sg.genRMAT.Seconds())
	res.set("graph.symmetrize_s", sg.symmetrize.Seconds())
	cells, err := suiteCells(sg, o)
	if err != nil {
		return err
	}
	times := map[string][]float64{}
	perRelax := map[string][]float64{}
	for pass := 0; pass < o.sc.suiteTracePasses+1; pass++ {
		for i := range cells {
			c := &cells[i]
			src, dst := c.endpoints(pass)
			var out cellOut
			_, d := tr.timed(1, pass*len(cells)+i, c.layer, c.name, func() { out, err = c.run(src, dst) })
			if !chk.note(err) {
				return err
			}
			if pass == 0 {
				continue // warm-up pass
			}
			times[c.name] = append(times[c.name], float64(d))
			perRelax[c.name] = append(perRelax[c.name], nsPerRelax(d, out.stats))
		}
	}
	med := func(name string) float64 { return median(times[name]) }
	res.set("core.fusion_speedup_road", ratio(med("road/sssp/eager_no_fusion"), med("road/sssp/eager_with_fusion")))
	res.set("core.constant_sum_social_ns_per_relax", median(perRelax["social/kcore/lazy_constant_sum"]))
	res.set("lang.dsl_over_algo_ratio_sssp", ratio(med("dsl/sssp.gt/road"), med("road/sssp/eager_with_fusion")))
	res.set("lang.dsl_over_algo_ratio_kcore", ratio(med("dsl/kcore.gt/social"), med("social/kcore/lazy_constant_sum")))
	if err := countsProbe(res, "kcore", sg.socialSym, "lazy_constant_sum", 1, 0); err != nil {
		return err
	}
	return probeLang(o, res, tr)
}

// probeLang compiles every testdata/dsl program and emits Go for each one the
// emitter supports (it refuses extern-driven loops such as astar.gt's).
func probeLang(o runOpts, res *result, tr *tracer) error {
	files, err := filepath.Glob(filepath.Join(o.dslDir, "*.gt"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no .gt programs under %s", o.dslDir)
	}
	sort.Strings(files)
	var compiles, emits []float64
	for rep := 0; rep < o.sc.probeReps; rep++ {
		plans := make([]*graphit.Plan, len(files))
		_, d := tr.timed(1, noReq, "lang", fmt.Sprintf("probe CompileDSLFile x%d", len(files)), func() {
			for i, f := range files {
				if plans[i], err = graphit.CompileDSLFile(f); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		compiles = append(compiles, ms(d))
		emitted := 0
		_, d = tr.timed(1, noReq, "lang", "probe Plan.EmitGo", func() {
			for _, p := range plans {
				if _, err := p.EmitGo(); err == nil {
					emitted++
				}
			}
		})
		emits = append(emits, ms(d))
		res.Samples["lang:compiled"], res.Samples["lang:emitted"] = len(files), emitted
	}
	res.set("lang.compile_ms", median(compiles))
	res.set("lang.emit_go_ms", median(emits))
	return nil
}
