package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/qexec"
	"graphit/internal/server"
	"graphit/internal/wal"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark's own code. Spans of one request share Req; Parent is the span of
// the same request at the next-outer boundary (the root span for the
// outermost), so parents form a tree. A child's interval does not lie inside
// its parent's: each boundary is timed on its own stack (see README).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A traced pass has one
// client, so nothing here is locked.
type tracer struct {
	t0    time.Time
	spans []span
}

const noReq = -1

// newTracer opens the root span (id 1), closed by finish.
func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), spans: []span{{ID: 1, Req: noReq, Layer: "spine", Name: workload}}}
}

// open reserves a span; run times f into it. Reserving first lets a request's
// spans name their parents before any of them has run.
func (t *tracer) open(parent, req int, layer, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name})
	return id
}

func (t *tracer) run(id int, f func()) time.Duration {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans[id-1].Start, t.spans[id-1].End = start.Nanoseconds(), end.Nanoseconds()
	return end - start
}

// timed runs f inside a new span and returns the span's id and duration.
func (t *tracer) timed(parent, req int, layer, name string, f func()) (int, time.Duration) {
	id := t.open(parent, req, layer, name)
	return id, t.run(id, f)
}

func (t *tracer) finish() []span {
	t.spans[0].End = time.Since(t.t0).Nanoseconds()
	return t.spans
}

// toRequest is server.Query's mapping onto the pipeline's request.
func toRequest(q *server.Query) qexec.Request {
	return qexec.Request{Algo: q.Algo, Graph: q.Graph, Src: q.Src, Dst: q.Dst, Strategy: q.Strategy,
		Direction: q.Direction, Delta: q.Delta, NumBuckets: q.NumBuckets, BudgetMS: q.BudgetMS, Vertices: q.Vertices}
}

// planSchedule is the schedule the pipeline's plan stage builds for q.
func planSchedule(q *server.Query) (graphit.Schedule, error) {
	return cliutil.ScheduleParams{Strategy: q.Strategy, Delta: q.Delta, Workers: workers,
		RoundTimeout: 5 * time.Second, StuckRounds: 256}.Schedule()
}

// boundaries holds one independent copy of the serving stack per public
// boundary, outermost first. Every copy sees the same request list, so cache
// and epoch state are identical across them; requests are timed on the
// copies back to back (in rotating order) so that drift cancels in the
// per-request differences.
//
//	queries:  HTTP -> Handler().ServeHTTP -> Pipeline.Do -> Spec.Run
//	updates:  HTTP -> ServeHTTP -> durable ApplyBatch -> ApplyBatch -> ApplyDelta
//
// observed is a further HTTP copy with the existing instrumentation on
// (Metrics, TraceRing); its slow-down against http is trace_overhead_pct and
// its /debug/queries, /statusz and /metrics supply the stage timings.
type boundaries struct {
	http, observed *stack
	handler        *server.Server
	pipe           *qexec.Pipeline
	live           *livegraph.Live // under pipe; nil on read-only workloads
	durable        *livegraph.Live // churn only
	chain          *graph.Graph    // churn only: graph.ApplyDelta applied directly
	client, obsCli *client
	cleanups       []func()
}

// newBoundaries builds the copies over g. mutable adds the durable pieces,
// each with its own data dir.
func newBoundaries(o runOpts, name string, g *graph.Graph, mutable bool) (b *boundaries, err error) {
	b = &boundaries{client: newClient(), obsCli: newClient(), chain: g}
	defer func() {
		if err != nil {
			err = errors.Join(err, b.close())
		}
	}()
	config := func() (server.Config, error) {
		if !mutable {
			return serverConfig(map[string]*graph.Graph{name: g}, o.sc), nil
		}
		dir, cleanup, err := tempDir(o, "traced-")
		if err != nil {
			return server.Config{}, err
		}
		b.cleanups = append(b.cleanups, cleanup)
		return churnConfig(g, o.sc, dir), nil
	}
	cfg, err := config()
	if err != nil {
		return b, err
	}
	if b.http, err = startStack(cfg); err != nil {
		return b, err
	}
	if cfg, err = config(); err != nil {
		return b, err
	}
	if b.handler, err = server.New(cfg); err != nil {
		return b, err
	}
	if cfg, err = config(); err != nil {
		return b, err
	}
	cfg.Metrics, cfg.TraceRing = true, 512
	if b.observed, err = startStack(cfg); err != nil {
		return b, err
	}
	pcfg := qexec.Config{MaxConcurrent: cfg.MaxConcurrent, Workers: cfg.Workers, CacheEntries: cfg.CacheEntries,
		Coalesce: cfg.Coalesce, BatchWindow: cfg.BatchWindow, BatchMaxLanes: cfg.BatchMaxLanes}
	if mutable {
		b.live = livegraph.New(name, g, livegraph.Config{})
		pcfg.Live = map[string]*livegraph.Live{name: b.live}
		dir, cleanup, err := tempDir(o, "traced-")
		if err != nil {
			return b, err
		}
		b.cleanups = append(b.cleanups, cleanup)
		store, err := wal.Open(filepath.Join(dir, name), wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return b, err
		}
		if b.durable, _, err = livegraph.Recover(name, g, store, livegraph.Config{}); err != nil {
			return b, errors.Join(err, store.Close())
		}
	} else {
		pcfg.Graphs = map[string]*graph.Graph{name: g}
	}
	b.pipe, err = qexec.New(pcfg)
	return b, err
}

func (b *boundaries) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	b.client.CloseIdleConnections()
	b.obsCli.CloseIdleConnections()
	for _, st := range []*stack{b.http, b.observed} {
		if st != nil {
			err = errors.Join(err, st.stop())
		}
	}
	if b.handler != nil {
		err = errors.Join(err, b.handler.Shutdown(ctx))
	}
	if b.pipe != nil {
		err = errors.Join(err, b.pipe.Close(ctx))
	}
	for _, l := range []*livegraph.Live{b.live, b.durable} {
		if l != nil {
			l.Close()
		}
	}
	for _, f := range b.cleanups {
		f()
	}
	return err
}

// serveDirect calls the handler without a socket.
func serveDirect(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// queryTimes are one traced query's durations per boundary. run is NaN when
// the cache answered (the engine was never reached).
type queryTimes struct {
	kind                             string
	http, handler, do, run, observed float64 // us
	cached                           bool
	bytes                            int
}

// traceQuery times q on every boundary; i rotates which copy goes first, so
// that no boundary always finds the caches warmed by another.
func (b *boundaries) traceQuery(tr *tracer, chk *checker, i int, r queryReq) queryTimes {
	qt := queryTimes{kind: r.kind, run: math.NaN()}
	body, err := json.Marshal(&r.q)
	if err != nil {
		chk.note(err)
		return qt
	}
	name := r.q.Algo
	httpID := tr.open(1, i, "server", "http /query "+name)
	handlerID := tr.open(httpID, i, "server", "ServeHTTP /query "+name)
	doID := tr.open(handlerID, i, "qexec", "Pipeline.Do "+name)
	obsID := tr.open(1, i, "obs", "http /query "+name+" (metrics+ring on)")
	steps := []func(){
		func() {
			var status int
			var data []byte
			var err error
			qt.http = us(tr.run(httpID, func() { status, data, err = b.client.post(b.http.url+"/query", body) }))
			qt.bytes = len(data)
			chk.note(replyError(status, data, err))
		},
		func() {
			var status int
			var data []byte
			qt.handler = us(tr.run(handlerID, func() { status, data = serveDirect(b.handler.Handler(), "/query", body) }))
			chk.note(replyError(status, data, nil))
		},
		func() {
			var out *qexec.Outcome
			qt.do = us(tr.run(doID, func() { out = b.pipe.Do(context.Background(), toRequest(&r.q)) }))
			qt.cached = out.Cached
			if chk.note(out.Err) && !out.Cached {
				qt.run = us(b.traceRun(tr, chk, doID, i, &r.q))
			}
		},
		func() {
			var status int
			var data []byte
			var err error
			qt.observed = us(tr.run(obsID, func() { status, data, err = b.obsCli.post(b.observed.url+"/query", body) }))
			chk.note(replyError(status, data, err))
		},
	}
	for k := range steps {
		steps[(i+k)%len(steps)]()
	}
	return qt
}

// traceRun is the innermost query boundary: the registry's Run on the graph
// the pipeline would have pinned.
func (b *boundaries) traceRun(tr *tracer, chk *checker, parent, i int, q *server.Query) time.Duration {
	sp, err := algo.Lookup(q.Algo)
	if err != nil {
		chk.note(err)
		return 0
	}
	sched, err := planSchedule(q)
	if err != nil {
		chk.note(err)
		return 0
	}
	g := b.chain
	if b.live != nil {
		snap := b.live.Acquire()
		defer snap.Release()
		g = snap.Graph()
	}
	_, d := tr.timed(parent, i, "core", "Spec.Run "+q.Algo, func() {
		_, err = sp.Run(context.Background(), g, q.Src, q.Dst, sched)
	})
	chk.note(err)
	return d
}

// replyError folds transport, status and body errors of a JSON reply.
func replyError(status int, data []byte, err error) error {
	if err != nil {
		return err
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return err
	}
	if status != http.StatusOK || reply.Error != "" {
		return fmt.Errorf("answered %d: %s", status, reply.Error)
	}
	return nil
}

// updateTimes are one traced batch's durations per boundary, in us.
type updateTimes struct {
	kind                                           string
	http, handler, durable, apply, delta, observed float64
	copied                                         int64
}

// traceUpdate applies one batch on every boundary.
func (b *boundaries) traceUpdate(tr *tracer, chk *checker, i int, ops []livegraph.Op, kind string) updateTimes {
	ut := updateTimes{kind: kind}
	body, err := json.Marshal(server.UpdateRequest{Graph: socialGraph, Ops: wireOps(ops)})
	if err != nil {
		chk.note(err)
		return ut
	}
	var status int
	var data []byte
	httpID, d := tr.timed(1, i, "server", "http /update "+kind, func() {
		status, data, err = b.client.post(b.http.url+"/update", body)
	})
	ut.http = us(d)
	chk.note(replyError(status, data, err))
	handlerID, d := tr.timed(httpID, i, "server", "ServeHTTP /update "+kind, func() {
		status, data = serveDirect(b.handler.Handler(), "/update", body)
	})
	ut.handler = us(d)
	chk.note(replyError(status, data, nil))
	durableID, d := tr.timed(handlerID, i, "livegraph", "ApplyBatch durable "+kind, func() {
		_, err = b.durable.ApplyBatch(ops)
	})
	ut.durable = us(d)
	chk.note(err)
	applyID, d := tr.timed(durableID, i, "livegraph", "ApplyBatch "+kind, func() {
		_, err = b.live.ApplyBatch(ops)
	})
	ut.apply = us(d)
	chk.note(err)
	var next *graph.Graph
	_, d = tr.timed(applyID, i, "graph", "ApplyDelta "+kind, func() {
		next, err = graph.ApplyDelta(b.chain, toDelta(ops))
	})
	ut.delta = us(d)
	if chk.note(err) {
		ut.copied = bytesCopied(b.chain, next)
		b.chain = next
	}
	_, d = tr.timed(1, i, "obs", "http /update "+kind+" (metrics+ring on)", func() {
		status, data, err = b.obsCli.post(b.observed.url+"/update", body)
	})
	ut.observed = us(d)
	chk.note(replyError(status, data, err))
	return ut
}

// fresh reports whether next is a new array rather than old's backing store.
func fresh[T any](old, next []T) bool {
	return len(next) > 0 && (len(old) == 0 || &old[0] != &next[0])
}

// bytesCopied is the size of next's arrays that ApplyDelta did not share with
// old: computed from array lengths, so it repeats exactly.
func bytesCopied(old, next *graph.Graph) int64 {
	var n int64
	count := func(isFresh bool, elems, size int) {
		if isFresh {
			n += int64(elems) * int64(size)
		}
	}
	count(fresh(old.Off, next.Off), len(next.Off), 8)
	count(fresh(old.Neigh, next.Neigh), len(next.Neigh), 4)
	count(fresh(old.Wts, next.Wts), len(next.Wts), 4)
	count(fresh(old.InOff, next.InOff), len(next.InOff), 8)
	count(fresh(old.InNeigh, next.InNeigh), len(next.InNeigh), 4)
	count(fresh(old.InWts, next.InWts), len(next.InWts), 4)
	return n
}

// pairedMedian is the median over requests of a[i]-b[i], skipping requests
// where either side is NaN. Pairing cancels the spread between requests (a
// road query costs 0.5 to 30 ms) that a difference of medians would keep.
func pairedMedian[T any](xs []T, a, b func(T) float64) float64 {
	var diffs []float64
	for _, x := range xs {
		if d := a(x) - b(x); !math.IsNaN(d) {
			diffs = append(diffs, d)
		}
	}
	return median(diffs)
}

func zero[T any](T) float64 { return 0 }

// reportQueryLayers turns the per-boundary times into the server/qexec/core
// self times.
func reportQueryLayers(res *result, qs []queryTimes) {
	miss := func(f func(queryTimes) float64) func(queryTimes) float64 {
		return func(q queryTimes) float64 {
			if q.cached {
				return math.NaN()
			}
			return f(q)
		}
	}
	httpT := func(q queryTimes) float64 { return q.http }
	handler := func(q queryTimes) float64 { return q.handler }
	do := func(q queryTimes) float64 { return q.do }
	run := func(q queryTimes) float64 { return q.run }
	res.set("server.http_roundtrip_us", pairedMedian(qs, miss(httpT), zero))
	res.set("server.http_transport_us", pairedMedian(qs, httpT, handler))
	res.set("server.codec_self_us", pairedMedian(qs, handler, do))
	res.set("qexec.self_us", pairedMedian(qs, do, run))
	res.set("core.spec_run_us", pairedMedian(qs, run, zero))
	res.set("qexec.hit_path_us", pairedMedian(qs, func(q queryTimes) float64 {
		if !q.cached {
			return math.NaN()
		}
		return q.do
	}, zero))
	res.set("server.response_bytes", pairedMedian(qs, func(q queryTimes) float64 { return float64(q.bytes) }, zero))
	for _, q := range qs {
		res.Samples["traced:"+q.kind]++
	}
}

// overhead is one request's time on the plain and on the instrumented copy.
type overhead struct{ plain, observed float64 }

// overheadPct is the instrumented copy's slow-down: the median per-request
// difference as a share of the plain copy's median request.
func overheadPct(os []overhead) float64 {
	plain := func(o overhead) float64 { return o.plain }
	return 100 * ratio(pairedMedian(os, func(o overhead) float64 { return o.observed }, plain), pairedMedian(os, plain, zero))
}

// reportObserved reads the instrumented copy's existing outputs: stage
// timings from /debug/queries, counters from /statusz, and a timed /metrics
// scrape (whose wal_fsync histogram count is the only public fsync counter).
func reportObserved(res *result, b *boundaries, requests, batches int) error {
	c, base := b.obsCli, b.observed.url
	var dq server.DebugQueries
	var st server.Status
	for path, into := range map[string]any{"/debug/queries": &dq, "/statusz": &st} {
		code, body, err := c.get(base + path)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("%s: %d %v", path, code, err)
		}
		if err := json.Unmarshal(body, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var plan, cache, batch, queue, run []float64
	fallbacks := 0
	for _, q := range dq.Queries {
		if q.Fallback {
			fallbacks++
		}
		plan = append(plan, float64(q.Stages.PlanUS))
		cache = append(cache, float64(q.Stages.CacheUS))
		if !q.Cached { // the later stages exist on the miss path only
			batch = append(batch, float64(q.Stages.BatchWaitUS))
			queue = append(queue, float64(q.Stages.QueueWaitUS))
			run = append(run, float64(q.Stages.RunUS))
		}
	}
	res.set("qexec.plan_us", median(plan))
	res.set("qexec.cache_us", median(cache))
	res.set("qexec.batch_wait_us", median(batch))
	res.set("qexec.queue_wait_us", median(queue))
	res.set("qexec.run_us", median(run))
	n := float64(requests)
	res.set("qexec.cache_hit_ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)))
	res.set("qexec.coalesced_share", coalescedShare(&st))
	res.set("qexec.batch_lanes_per_run", ratio(float64(st.Batch.Lanes), float64(st.Batch.MultiRuns)))
	res.set("qexec.runs_per_request", ratio(float64(st.Runs), n))
	res.set("qexec.shed_share", ratio(float64(st.Admission.Shed), n))
	res.set("qexec.fallback_share", ratio(float64(fallbacks), n))

	var scrapes []float64
	var text []byte
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		code, body, err := c.get(base + "/metrics")
		scrapes = append(scrapes, ms(time.Since(t)))
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("/metrics: %d %v", code, err)
		}
		text = body
	}
	res.set("obs.scrape_ms", median(scrapes))
	if batches > 0 {
		res.set("wal.fsyncs_per_batch", ratio(promValue(text, "wal_fsync_duration_seconds_count"), float64(batches)))
		for _, l := range st.Live {
			if l.Durability != nil {
				res.set("wal.bytes_per_op", ratio(float64(l.Durability.Bytes), float64(l.OpsApplied)))
			}
		}
	}
	return nil
}

// promValue returns the first sample of the named series in a Prometheus
// text exposition, or 0.
func promValue(text []byte, series string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// runTraced is the -trace 1 pass: one client, a fixed request count, spans
// around every boundary, then the probes of the layers this workload drives.
func runTraced(o runOpts) (*result, error) {
	res := newResult(o.workload, 1, o.seed, o.seconds, 0)
	tr := newTracer(o.workload)
	chk := &checker{}
	var err error
	switch o.workload {
	case wlRoadNav:
		err = tracedRoad(o, res, tr, chk)
	case wlSocialHot:
		err = tracedHot(o, res, tr, chk)
	case wlSocialChurn:
		err = tracedChurn(o, res, tr, chk)
	case wlPaperSuite:
		err = tracedSuite(o, res, tr, chk)
	default:
		err = fmt.Errorf("spine: unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	res.Spans = tr.finish()
	res.absorb(chk)
	return res, nil
}

// tracedQueries replays the first n requests of stream on b and reports the
// query layers and the instrumented copy's numbers.
func tracedQueries(res *result, tr *tracer, chk *checker, b *boundaries, stream queryStream, n int) error {
	qs := make([]queryTimes, n)
	os := make([]overhead, n)
	for i := range qs {
		qs[i] = b.traceQuery(tr, chk, i, stream.next())
		os[i] = overhead{qs[i].http, qs[i].observed}
	}
	reportQueryLayers(res, qs)
	res.set("trace_overhead_pct", overheadPct(os))
	return reportObserved(res, b, n, 0)
}

func tracedRoad(o runOpts, res *result, tr *tracer, chk *checker) (err error) {
	g, err := buildRoad(o.sc)
	if err != nil {
		return err
	}
	b, err := newBoundaries(o, roadGraph, g, false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, b.close()) }()
	if err := tracedQueries(res, tr, chk, b, newRoadStream(o.seed, 0, g), o.sc.tracedRoad); err != nil {
		return err
	}
	return probeRoad(o, res, tr, g)
}

func tracedHot(o runOpts, res *result, tr *tracer, chk *checker) (err error) {
	g, err := buildSocial(o.sc)
	if err != nil {
		return err
	}
	b, err := newBoundaries(o, socialGraph, g, false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, b.close()) }()
	ranked := rankHotKeys(o.seed, hotCandidates(g, o.sc.hotKeys))
	if err := tracedQueries(res, tr, chk, b, newHotStream(o.seed, 0, ranked), o.sc.tracedHot); err != nil {
		return err
	}
	return probeSocial(o, res, tr, g)
}

// tracedChurn replays two batches then one query, so that — as in the
// measured pass — every query meets a fresh epoch and an empty cache.
func tracedChurn(o runOpts, res *result, tr *tracer, chk *checker) (err error) {
	g, err := buildSocial(o.sc)
	if err != nil {
		return err
	}
	b, err := newBoundaries(o, socialGraph, g, true)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, b.close()) }()
	ws := newWriteStream(o.seed, g)
	reader := newHotStream(o.seed, 1, rankHotKeys(o.seed, hotCandidates(g, o.sc.hotKeys)))
	n := o.sc.tracedChurnQueries
	qs := make([]queryTimes, 0, n)
	uts := make([]updateTimes, 0, 2*n)
	var os []overhead
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			ops, kind := ws.next()
			ut := b.traceUpdate(tr, chk, n+2*i+k, ops, kind)
			ws.commit(ops)
			uts = append(uts, ut)
			os = append(os, overhead{ut.http, ut.observed})
		}
		qt := b.traceQuery(tr, chk, i, reader.next())
		qs = append(qs, qt)
		os = append(os, overhead{qt.http, qt.observed})
	}
	reportQueryLayers(res, qs)
	reportUpdateLayers(res, uts)
	res.set("trace_overhead_pct", overheadPct(os))
	if err := reportObserved(res, b, n, len(uts)); err != nil {
		return err
	}
	return probeChurn(o, res, tr, g, b)
}

// reportUpdateLayers turns the update boundaries into self times.
func reportUpdateLayers(res *result, uts []updateTimes) {
	kind := func(k string, f func(updateTimes) float64) func(updateTimes) float64 {
		return func(u updateTimes) float64 {
			if u.kind != k {
				return math.NaN()
			}
			return f(u)
		}
	}
	handler := func(u updateTimes) float64 { return u.handler }
	durable := func(u updateTimes) float64 { return u.durable }
	apply := func(u updateTimes) float64 { return u.apply }
	delta := func(u updateTimes) float64 { return u.delta }
	res.set("server.update_codec_self_us", pairedMedian(uts, handler, durable))
	res.set("livegraph.durable_self_ms", pairedMedian(uts, durable, apply)/1e3)
	res.set("livegraph.apply_batch_self_ms", pairedMedian(uts, apply, delta)/1e3)
	res.set("graph.apply_delta_reweight64_ms", pairedMedian(uts, kind("reweight64", delta), zero)/1e3)
	res.set("graph.apply_delta_topo8_ms", pairedMedian(uts, kind("topo8", delta), zero)/1e3)
	res.set("graph.apply_delta_bytes_copied", pairedMedian(uts, kind("reweight64", func(u updateTimes) float64 { return float64(u.copied) }), zero))
	for _, u := range uts {
		res.Samples["traced:"+u.kind]++
	}
}
