package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"graphit/algo"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/server"
	"graphit/internal/wal"
)

// runOpts is one process's assignment.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	sc       scale
	// workdir holds data dirs and scratch files; it lies inside the checkout.
	workdir string
	// dslDir is testdata/dsl.
	dslDir string
	// tamper is the smoke test's hook for corrupting checked replies.
	tamper func(*server.Response)
}

// setUp runs build sc.setupReps times — graph generation, derived copies,
// server.New, until /readyz is 200 — keeps the last stack and returns the
// median wall time. build's cleanup runs once its stack has stopped; the kept
// stack's cleanup is returned for the caller to run.
func setUp(o runOpts, build func() (server.Config, func(), error)) (*stack, func(), float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		t := time.Now()
		cfg, cleanup, err := build()
		if err != nil {
			return nil, nil, 0, err
		}
		st, err := startStack(cfg)
		if err != nil {
			cleanup()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if rep == o.sc.setupReps-1 {
			return st, cleanup, median(times), nil
		}
		err = st.stop()
		cleanup()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("stopping set-up repetition %d: %w", rep, err)
		}
	}
}

// plausible is the cheap per-reply check of the timed window: the reply must
// echo the request and carry its result kind. Exact answers are checked
// after the window by verify.
func plausible(q *server.Query, resp *server.Response) error {
	if resp.Algo != q.Algo || resp.Graph != q.Graph {
		return fmt.Errorf("asked %s on %s, reply echoes %s on %s", q.Algo, q.Graph, resp.Algo, resp.Graph)
	}
	if resp.Fallback {
		return fmt.Errorf("%s from %d was answered by the fallback schedule (%s)", q.Algo, q.Src, resp.FaultKind)
	}
	switch q.Algo {
	case "ppsp", "astar":
		// Pair queries only run on the road grid, which is connected.
		if resp.PairDist == nil {
			return fmt.Errorf("%s %d->%d: no pair distance", q.Algo, q.Src, q.Dst)
		}
	default:
		if resp.Reached == nil || *resp.Reached < 1 {
			return fmt.Errorf("%s from %d: reached %v", q.Algo, q.Src, resp.Reached)
		}
	}
	return nil
}

// queryClient returns one closed-loop reader. With hitMiss the kind label
// says whether the cache answered; acked, when set, is the last epoch the
// writer saw acknowledged, which every later reply must have reached.
func queryClient(st *stack, c *client, stream queryStream, chk *checker, hitMiss bool, acked *atomic.Uint64) func() sample {
	return func() sample {
		r := stream.next()
		var floor uint64
		if acked != nil {
			floor = acked.Load()
		}
		resp, lat, err := c.postQuery(st.url, &r.q)
		if err == nil {
			err = plausible(&r.q, resp)
		}
		if err == nil && resp.Epoch < floor {
			err = fmt.Errorf("query sent after epoch %d was acked answered at epoch %d", floor, resp.Epoch)
		}
		kind := r.kind
		if hitMiss && resp != nil {
			if resp.Cached {
				kind += "/hit"
			} else {
				kind += "/miss"
			}
		}
		return sample{kind: kind, lat: lat, ok: chk.note(err)}
	}
}

// servingSpec is a read-only serving workload.
type servingSpec struct {
	graphName string
	build     func(scale) (*graph.Graph, error)
	streams   func(o runOpts, g *graph.Graph) []queryStream
	hitMiss   bool
	// checked derives the answer-checking queries of one source.
	checked func(g *graph.Graph, per int) func(r *rand.Rand, src uint32) []server.Query
}

var roadNav = servingSpec{
	graphName: roadGraph,
	build:     buildRoad,
	streams: func(o runOpts, g *graph.Graph) []queryStream {
		return []queryStream{newRoadStream(o.seed, 0, g), newRoadStream(o.seed, 1, g)}
	},
	checked: func(g *graph.Graph, per int) func(r *rand.Rand, src uint32) []server.Query {
		n := g.NumVertices()
		return func(r *rand.Rand, src uint32) []server.Query {
			qs := make([]server.Query, per)
			for i := range qs {
				q := server.Query{Graph: roadGraph, Strategy: roadStrategy, Delta: roadDelta, Src: src}
				switch i % 4 {
				case 0:
					q.Algo, q.Vertices = "sssp", selection(r, n, 16)
				case 1, 3:
					q.Algo, q.Dst = "ppsp", r.Uint32N(uint32(n))
				default:
					q.Algo, q.Dst = "astar", r.Uint32N(uint32(n))
				}
				qs[i] = q
			}
			return qs
		}
	},
}

var socialHot = servingSpec{
	graphName: socialGraph,
	build:     buildSocial,
	hitMiss:   true,
	streams: func(o runOpts, g *graph.Graph) []queryStream {
		ranked := rankHotKeys(o.seed, hotCandidates(g, o.sc.hotKeys))
		return []queryStream{newHotStream(o.seed, 0, ranked), newHotStream(o.seed, 1, ranked)}
	},
	checked: socialChecked,
}

// socialChecked asks sssp and wbfs (equal on one graph) for seeded vertex
// selections; each selection is its own cache key, so every query runs.
func socialChecked(g *graph.Graph, per int) func(r *rand.Rand, src uint32) []server.Query {
	n := g.NumVertices()
	return func(r *rand.Rand, src uint32) []server.Query {
		qs := make([]server.Query, per)
		for i := range qs {
			qs[i] = server.Query{Graph: socialGraph, Strategy: socialStrategy, Delta: socialDelta,
				Src: src, Algo: "sssp", Vertices: selection(r, n, 16)}
			if i%3 == 2 {
				qs[i].Algo = "wbfs"
			}
		}
		return qs
	}
}

// specRef is the registry's sequential reference for name on g.
func specRef(name string, g *graph.Graph) (func(src uint32) ([]int64, error), error) {
	sp, err := algo.Lookup(name)
	if err != nil {
		return nil, err
	}
	return func(src uint32) ([]int64, error) {
		res, err := sp.Ref(g, src, 0)
		if err != nil {
			return nil, err
		}
		return res.Values, nil
	}, nil
}

// reportQueries fills the query metrics every serving workload shares.
func reportQueries(res *result, q latencySummary, firstSecond float64) {
	res.set("queries_per_s", q.perSecond)
	res.set("query_p50_ms", q.p50)
	res.set("query_p90_ms", q.p90)
	res.set("suite_geomean_ms", geomean(cellTimes(q)))
	res.Samples["query"] = q.n
	reportKinds(res, "query", q)
	if q.n >= 1000 { // a p99 needs ten samples beyond it
		res.info("server.query_p99_ms", "ms", q.p99)
	}
	res.info("first_second_queries_per_s", "1/s", firstSecond)
}

// reportKinds records each request kind's sample count and cell time.
func reportKinds(res *result, class string, sum latencySummary) {
	for k, n := range sum.kindCounts {
		res.Samples[class+":"+k] = n
		res.info("kind_ms:"+class+":"+k, "ms", sum.cells[k])
	}
}

// reportStatus records the measured pass's own counters from /statusz — an
// existing output that costs the timed window nothing.
func reportStatus(res *result, st *stack, c *client) error {
	code, body, err := c.get(st.url + "/statusz")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("statusz: %d %v", code, err)
	}
	var s server.Status
	if err := json.Unmarshal(body, &s); err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	res.info("qexec.cache_hit_ratio", "ratio", ratio(float64(s.Cache.Hits), float64(s.Cache.Hits+s.Cache.Misses)))
	res.info("qexec.coalesced_share", "ratio", coalescedShare(&s))
	res.info("qexec.batch_lanes_per_run", "ratio", ratio(float64(s.Batch.Lanes), float64(s.Batch.MultiRuns)))
	for _, l := range s.Live {
		res.info("livegraph.compactions", "count", float64(l.Compactions))
		res.info("livegraph.overlay_ops", "count", float64(l.OverlayOps))
		if l.Durability != nil {
			res.info("livegraph.checkpoints", "count", float64(l.Durability.Ckpts))
		}
	}
	return nil
}

// coalescedShare is the share of /query requests that joined another
// request's flight instead of running. Every request looks its key up in the
// cache exactly once, so hits + misses counts the requests.
func coalescedShare(s *server.Status) float64 {
	return ratio(float64(s.Coalesce.Coalesced), float64(s.Cache.Hits+s.Cache.Misses))
}

func finishRSS(res *result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}

// runServing measures a read-only serving workload.
func runServing(o runOpts, spec servingSpec) (res *result, err error) {
	res = newResult(o.workload, 0, o.seed, o.seconds, o.sc.warmup)
	var g *graph.Graph
	st, _, setupS, err := setUp(o, func() (server.Config, func(), error) {
		var err error
		g, err = spec.build(o.sc)
		return serverConfig(map[string]*graph.Graph{spec.graphName: g}, o.sc), func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, st.stop()) }()
	res.set("setup_s", setupS)

	chk := &checker{}
	var fns []func() sample
	for _, stream := range spec.streams(o, g) {
		c := newClient()
		defer c.CloseIdleConnections()
		fns = append(fns, queryClient(st, c, stream, chk, spec.hitMiss, nil))
	}
	samples, firstSecond := runClosedLoop(fns, o.sc.warmup, o.seconds)
	q := summarize(samples, false, o.seconds)
	reportQueries(res, q, firstSecond)

	c := newClient()
	defer c.CloseIdleConnections()
	if err := reportStatus(res, st, c); err != nil {
		return nil, err
	}
	ref, err := specRef("sssp", g)
	if err != nil {
		return nil, err
	}
	verify(st, verifyPlan{
		sources: randomSources(o.seed, g.NumVertices(), o.sc.verifySources),
		queries: spec.checked(g, o.sc.verifyPerSource),
		ref:     ref,
		tamper:  o.tamper,
	}, o.seed, chk)
	res.absorb(chk)
	return res, finishRSS(res)
}

// churnConfig is social_churn's server: mutable and durable, fsync before
// every ack.
func churnConfig(g *graph.Graph, sc scale, dataDir string) server.Config {
	cfg := serverConfig(map[string]*graph.Graph{socialGraph: g}, sc)
	cfg.Mutable = true
	cfg.DataDir = dataDir
	cfg.WALSync = wal.SyncAlways
	return cfg
}

// tempDir makes a scratch directory under the run's workdir and returns the
// function that removes it.
func tempDir(o runOpts, pattern string) (string, func(), error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// updateClient returns social_churn's closed-loop writer. Acked epochs must
// be gapless and increasing; each ack is folded into the stream's model and
// published through acked for the reader's epoch check.
func updateClient(st *stack, c *client, ws *writeStream, chk *checker, acked *atomic.Uint64) func() sample {
	return func() sample {
		ops, kind := ws.next()
		epoch, lat, err := c.postUpdate(st.url, ops)
		switch want := acked.Load() + 1; {
		case err != nil:
		case epoch != want:
			err = fmt.Errorf("/update acked epoch %d, want %d (epochs must be gapless)", epoch, want)
		default:
			ws.commit(ops)
			acked.Store(epoch)
		}
		return sample{kind: kind, update: true, ops: len(ops), lat: lat, ok: chk.note(err)}
	}
}

// runChurn measures social_churn: a writer beside a reader, then the
// recovery drill.
func runChurn(o runOpts) (res *result, err error) {
	res = newResult(o.workload, 0, o.seed, o.seconds, o.sc.warmup)
	var g *graph.Graph
	st, cleanup, setupS, err := setUp(o, func() (server.Config, func(), error) {
		var err error
		if g, err = buildSocial(o.sc); err != nil {
			return server.Config{}, nil, err
		}
		dir, cleanup, err := tempDir(o, "churn-")
		return churnConfig(g, o.sc, dir), cleanup, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, st.stop())
		}
	}()
	res.set("setup_s", setupS)

	chk := &checker{}
	var acked atomic.Uint64
	ws := newWriteStream(o.seed, g)
	ranked := rankHotKeys(o.seed, hotCandidates(g, o.sc.hotKeys))
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()
	samples, firstSecond := runClosedLoop([]func() sample{
		updateClient(st, wc, ws, chk, &acked),
		queryClient(st, rc, newHotStream(o.seed, 1, ranked), chk, false, &acked),
	}, o.sc.warmup, o.seconds)
	q := summarize(samples, false, o.seconds)
	u := summarize(samples, true, o.seconds)
	reportQueries(res, q, firstSecond)
	res.set("update_ops_per_s", u.perSecond)
	res.set("update_p50_ms", u.p50)
	res.set("update_p90_ms", u.p90)
	res.Samples["update"] = u.n
	reportKinds(res, "update", u)
	if u.n >= 1000 {
		res.info("server.update_p99_ms", "ms", u.p99)
	}
	if err := reportStatus(res, st, rc); err != nil {
		return nil, err
	}

	// Quiescent now: answers at the final epoch must equal the model's.
	verify(st, verifyPlan{
		sources:   randomSources(o.seed, g.NumVertices(), (o.sc.verifySources+1)/2),
		queries:   socialChecked(g, (o.sc.verifyPerSource+1)/2),
		ref:       func(src uint32) ([]int64, error) { return ws.m.dijkstra(src), nil },
		wantEpoch: true,
		epoch:     acked.Load(),
		tamper:    o.tamper,
	}, o.seed, chk)
	stopped = true
	if err := st.stop(); err != nil {
		return nil, err
	}

	recovery, err := recoveryDrill(o, g, chk)
	if err != nil {
		return nil, err
	}
	res.set("recovery_s", recovery.Seconds())
	// The cells of social_churn: what the reader asks, what the writer sends,
	// and the restart. This is where the write path reaches the gated list.
	res.set("suite_geomean_ms", geomean(append(cellTimes(q, u), ms(recovery))))
	res.absorb(chk)
	return res, finishRSS(res)
}

// writeDrillLog writes log into a fresh store under dataDir through the same
// two calls livegraph.ApplyBatch makes (EncodeOps, Store.Append). Applying
// it through a server instead costs seconds of ApplyDelta per run for the
// same bytes on disk.
func writeDrillLog(dataDir string, log [][]livegraph.Op) (err error) {
	store, err := wal.Open(filepath.Join(dataDir, socialGraph), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, store.Close()) }()
	if err := store.Replay(wal.Pos{}, func(wal.Record) error { return errors.New("fresh store holds a record") }); err != nil {
		return err
	}
	for b, ops := range log {
		if _, err := store.Append(uint64(b+1), livegraph.EncodeOps(ops)); err != nil {
			return err
		}
	}
	return nil
}

// recoveryDrill times server.New over a data dir holding the fixed log and no
// checkpoint, then checks the recovered epoch and answers.
func recoveryDrill(o runOpts, g *graph.Graph, chk *checker) (time.Duration, error) {
	dir, cleanup, err := tempDir(o, "drill-")
	if err != nil {
		return 0, err
	}
	defer cleanup()
	log := drillLog(g, o.sc.drillBatches)
	if err := writeDrillLog(dir, log); err != nil {
		return 0, fmt.Errorf("writing drill log: %w", err)
	}
	cfg := churnConfig(g, o.sc, dir)
	cfg.WALSync = wal.SyncNone
	t := time.Now()
	st, err := startStack(cfg)
	recovery := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("recovering drill log: %w", err)
	}
	info := st.srv.Recovery()[socialGraph]
	if want := uint64(len(log)); info.Epoch != want || info.Replayed != int64(want) || info.FromCheckpoint {
		chk.note(fmt.Errorf("recovered epoch %d from %d replayed batches (checkpoint %v), want %d", info.Epoch, info.Replayed, info.FromCheckpoint, want))
	} else {
		chk.note(nil)
	}
	m := newModel(g)
	for _, ops := range log {
		m.apply(ops)
	}
	verify(st, verifyPlan{
		sources:   randomSources(o.seed+1, g.NumVertices(), (o.sc.verifySources+3)/4),
		queries:   socialChecked(g, (o.sc.verifyPerSource+1)/2),
		ref:       func(src uint32) ([]int64, error) { return m.dijkstra(src), nil },
		wantEpoch: true,
		epoch:     uint64(len(log)),
		tamper:    o.tamper,
	}, o.seed, chk)
	return recovery, st.stop()
}
