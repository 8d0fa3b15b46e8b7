package qexec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/faults"
	"graphit/internal/livegraph"
	"graphit/internal/obs"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// batchReq is the canonical batchable request shape: explicit lazy strategy
// (the k-lane engine's only supported strategy — the pipeline default is
// eager_with_fusion, which can never batch).
func batchReq(src uint32, probe []uint32) Request {
	return Request{Algo: "sssp", Graph: "road", Src: src, Strategy: "lazy", Vertices: probe}
}

// TestBatchFanOut drives k concurrent same-shape/different-src queries
// through the batch-coalescing stage and proves the contract end to end:
// one engine run serves every lane, each lane's answer equals an
// independent single-source run's, and each lane lands in the result cache
// under its own single-source key.
func TestBatchFanOut(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	const k = 4
	probe := []uint32{0, 7, 42, 255}

	// Reference answers from a pipeline with batching disabled.
	ref := newTestPipeline(t, Config{})
	want := make([]*Outcome, k)
	for i := range want {
		want[i] = ref.Do(context.Background(), batchReq(uint32(i), probe))
		if want[i].Code != CodeOK {
			t.Fatalf("reference run src=%d: %s: %v", i, want[i].Code, want[i].Err)
		}
	}
	mustClose(t, ref)

	p := newTestPipeline(t, Config{
		CacheEntries:  64,
		BatchWindow:   300 * time.Millisecond,
		BatchMaxLanes: k, // the k-th join seals the window, no timer needed
	})
	defer mustClose(t, p)

	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = batchReq(uint32(i), probe)
	}
	for i, out := range doConcurrently(p, reqs) {
		if out.Code != CodeOK {
			t.Fatalf("lane src=%d: %s: %v", i, out.Code, out.Err)
		}
		if !out.Batched || out.BatchLanes != k {
			t.Errorf("lane src=%d: Batched=%v BatchLanes=%d, want true/%d", i, out.Batched, out.BatchLanes, k)
		}
		if out.Fallback || out.Cached {
			t.Errorf("lane src=%d: Fallback=%v Cached=%v on the primary batched path", i, out.Fallback, out.Cached)
		}
		for _, v := range probe {
			key := fmt.Sprint(v)
			if got, exp := out.Summary.Values[key], want[i].Summary.Values[key]; got != exp {
				t.Errorf("lane src=%d vertex %s: batched dist %d != solo dist %d", i, key, got, exp)
			}
		}
	}

	st := p.Status()
	if st.Runs != 1 {
		t.Errorf("engine runs = %d, want 1 (one k-lane run for the whole batch)", st.Runs)
	}
	if st.Batch.Windows != 1 || st.Batch.MultiRuns != 1 || st.Batch.Lanes != int64(k) || st.Batch.Solo != 0 {
		t.Errorf("batch status = %+v, want 1 window, 1 multi-run, %d lanes, 0 solo", st.Batch, k)
	}

	// Every lane was cached under its own single-source key.
	for i := 0; i < k; i++ {
		out := p.Do(context.Background(), batchReq(uint32(i), probe))
		if out.Code != CodeOK || !out.Cached {
			t.Errorf("re-issued src=%d: Code=%s Cached=%v, want cache hit", i, out.Code, out.Cached)
		}
	}
}

// TestBatchSoloWindow proves the degenerate window: a batchable request with
// no companions pays the window, then runs as a one-lane run — marked
// Batched with BatchLanes zero — and the stage records a solo close.
func TestBatchSoloWindow(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{BatchWindow: 5 * time.Millisecond, BatchMaxLanes: 8})
	defer mustClose(t, p)

	out := p.Do(context.Background(), batchReq(3, []uint32{42}))
	if out.Code != CodeOK {
		t.Fatalf("solo window: %s: %v", out.Code, out.Err)
	}
	if !out.Batched || out.BatchLanes != 0 {
		t.Errorf("Batched=%v BatchLanes=%d, want true/0", out.Batched, out.BatchLanes)
	}
	st := p.Status().Batch
	if st.Windows != 1 || st.Solo != 1 || st.MultiRuns != 0 {
		t.Errorf("batch status = %+v, want 1 window closed solo", st)
	}
}

// TestSoloLazyRunsLaneKernel pins the routing of solo lazy queries: the
// primary run of a batchable plan is a one-lane lane-kernel run whether its
// window closed solo or no window was open (BatchWindow=0). The kernel is
// serial, so each answer's Stats equal a direct one-lane Spec.RunMulti's
// exactly; the answer equals the sequential reference; nothing was shared
// (BatchLanes 0) and the solo counters moved. A non-batchable request on the
// same pipeline still runs Spec.Run on the engine.
func TestSoloLazyRunsLaneKernel(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	opt := graphit.DefaultRMAT(10, 8, 3)
	g, err := graphit.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The pair query's destination: the reachable vertex farthest from 0.
	far, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dst uint32
	for v, d := range far {
		if d != graphit.Unreached && d > far[dst] {
			dst = uint32(v)
		}
	}
	reqs := []Request{
		{Algo: "sssp", Graph: "social", Src: 0, Strategy: "lazy", Delta: 64},
		{Algo: "wbfs", Graph: "social", Src: 0, Strategy: "lazy"},
		{Algo: "ppsp", Graph: "social", Src: 0, Dst: dst, Strategy: "lazy", Delta: 64},
	}
	for _, window := range []time.Duration{time.Millisecond, 0} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			reg := obs.NewRegistry()
			p := newTestPipeline(t, Config{
				Graphs:        map[string]*graphit.Graph{"social": g},
				Workers:       1,
				BatchWindow:   window,
				BatchMaxLanes: 8,
				Metrics:       reg,
			})
			defer mustClose(t, p)
			solo := reg.Counter("qexec_batch_solo_total", "")
			for i, req := range reqs {
				pl, err := p.plan(&req)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := pl.Spec.RunMulti(context.Background(), g,
					[]graphit.VertexID{pl.Src}, []graphit.VertexID{pl.Dst}, pl.Sched)
				pl.Snap.Release()
				if err != nil {
					t.Fatalf("%s: direct one-lane run: %v", req.Algo, err)
				}
				ref, err := pl.Spec.Ref(g, pl.Src, pl.Dst)
				if err != nil {
					t.Fatal(err)
				}

				req.Vertices = allVertices(g)
				out := p.Do(context.Background(), req)
				if out.Code != CodeOK || out.Fallback {
					t.Fatalf("%s: %s (%v) Fallback=%v", req.Algo, out.Code, out.Err, out.Fallback)
				}
				if pl.Spec.Kind == algo.KindPair {
					want := algo.Summarize(pl.Spec, ref, pl.Dst, nil).PairDist
					if got := out.Summary.PairDist; got == nil || want == nil || *got != *want {
						t.Errorf("%s: pair distance %v, want %v", req.Algo, got, want)
					}
				} else {
					wantSummaryValues(t, out, req.Vertices, ref.Values)
				}
				if out.Stats == nil || *out.Stats != direct[0].Stats {
					t.Errorf("%s: stats %+v, want the one-lane kernel run's %+v", req.Algo, out.Stats, direct[0].Stats)
				}
				if out.Batched != (window > 0) || out.BatchLanes != 0 {
					t.Errorf("%s: Batched=%v BatchLanes=%d, want %v/0", req.Algo, out.Batched, out.BatchLanes, window > 0)
				}
				if window > 0 {
					if got := p.Status().Batch.Solo; got != int64(i+1) {
						t.Errorf("%s: Status.Batch.Solo = %d, want %d", req.Algo, got, i+1)
					}
					if got := solo.Value(); got != int64(i+1) {
						t.Errorf("%s: qexec_batch_solo_total = %d, want %d", req.Algo, got, i+1)
					}
				}
			}
			if st := p.Status().Batch; st.MultiRuns != 0 || st.Lanes != 0 {
				t.Errorf("batch status = %+v, want no multi-lane runs", st)
			}
			if got := reg.Counter("qexec_batch_runs_total", "").Value(); got != 0 {
				t.Errorf("qexec_batch_runs_total = %d, want 0", got)
			}

			// A non-batchable plan keeps Spec.Run: at Workers=1 its stats
			// repeat exactly.
			req := Request{Algo: "sssp", Graph: "social", Src: 0, Strategy: "eager_with_fusion", Delta: 64}
			pl, err := p.plan(&req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pl.Spec.Run(context.Background(), g, pl.Src, pl.Dst, pl.Sched)
			pl.Snap.Release()
			if err != nil {
				t.Fatal(err)
			}
			out := p.Do(context.Background(), req)
			if out.Code != CodeOK || out.Batched {
				t.Fatalf("eager: %s (%v) Batched=%v", out.Code, out.Err, out.Batched)
			}
			if out.Stats == nil || *out.Stats != want.Stats {
				t.Errorf("eager: stats %+v, want Spec.Run's %+v", out.Stats, want.Stats)
			}
		})
	}
}

// TestBatchSkipsNonBatchable: the default schedule (eager_with_fusion) must
// bypass the batch stage entirely — the k-lane engine does not support it.
func TestBatchSkipsNonBatchable(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{BatchWindow: 50 * time.Millisecond})
	defer mustClose(t, p)

	for _, req := range []Request{
		{Algo: "sssp", Graph: "road", Src: 1}, // default strategy: eager_with_fusion
		{Algo: "sssp", Graph: "road", Src: 1, Strategy: "eager_with_fusion"},
	} {
		out := p.Do(context.Background(), req)
		if out.Code != CodeOK {
			t.Fatalf("%+v: %s: %v", req, out.Code, out.Err)
		}
		if out.Batched {
			t.Errorf("%+v: non-batchable request went through the batch stage", req)
		}
	}
	if st := p.Status().Batch; st.Windows != 0 {
		t.Errorf("batch windows = %d, want 0 (no batchable traffic)", st.Windows)
	}
}

// doConcurrently issues reqs at once and returns their outcomes in order.
func doConcurrently(p *Pipeline, reqs []Request) []*Outcome {
	outs := make([]*Outcome, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			outs[i] = p.Do(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	return outs
}

// TestBatchPairQueries: point-to-point queries batch too — the lane kernel
// carries per-lane stop conditions — and each lane's pair distance equals
// the sequential reference.
func TestBatchPairQueries(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := testGraph(t)
	sp, err := algo.Lookup("ppsp")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPipeline(t, Config{
		Graphs:        map[string]*graphit.Graph{"road": g},
		BatchWindow:   time.Minute,
		BatchMaxLanes: 3, // the third join seals the window
	})
	defer mustClose(t, p)
	reqs := []Request{
		{Algo: "ppsp", Graph: "road", Src: 0, Dst: 255, Strategy: "lazy", Delta: 4},
		{Algo: "ppsp", Graph: "road", Src: 17, Dst: 3, Strategy: "lazy", Delta: 4},
		{Algo: "ppsp", Graph: "road", Src: 200, Dst: 201, Strategy: "lazy", Delta: 4},
	}
	for i, out := range doConcurrently(p, reqs) {
		if out.Code != CodeOK || out.BatchLanes != 3 || out.Fallback {
			t.Fatalf("lane %d: %s (%v) BatchLanes=%d Fallback=%v", i, out.Code, out.Err, out.BatchLanes, out.Fallback)
		}
		ref, err := sp.Ref(g, reqs[i].Src, reqs[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		want := algo.Summarize(sp, ref, reqs[i].Dst, nil).PairDist
		if got := out.Summary.PairDist; got == nil || want == nil || *got != *want {
			t.Errorf("lane %d: pair distance %v, want %v", i, got, want)
		}
	}
	if runs := p.Status().Runs; runs != 1 {
		t.Errorf("engine runs = %d, want 1", runs)
	}
}

// TestBatchFaultFallsBackPerLane: a one-shot panic injected into one lane
// group of the k-lane run's relaxation faults the whole batch once; every lane is then answered
// by its own serial fallback run — equal to the sequential reference, marked
// Fallback, never cached — and the breaker hears of exactly one fault.
func TestBatchFaultFallsBackPerLane(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := testGraph(t)
	sp, err := algo.Lookup("sssp")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPipeline(t, Config{
		Graphs:        map[string]*graphit.Graph{"road": g},
		CacheEntries:  64,
		BatchWindow:   time.Minute,
		BatchMaxLanes: 3,
		// Two workers: the three lanes run as two lane groups, and the
		// group whose relax chunk panics first cancels the other.
		Workers: 2,
		// The lane kernel's first relax chunk panics; the per-lane fallback
		// reruns find the trigger spent.
		BaseContext: faults.New(faults.PanicAt(core.PhaseRelaxChunk, 0, "hostile relaxation")).Context,
	})
	defer mustClose(t, p)
	ids := allVertices(g)
	reqs := []Request{batchReq(0, ids), batchReq(100, ids), batchReq(255, ids)}
	for i, out := range doConcurrently(p, reqs) {
		if out.Code != CodeOK || !out.Fallback || out.FaultKind != graphit.FaultKindPanic || out.BatchLanes != 3 {
			t.Fatalf("lane %d: %s (%v) Fallback=%v FaultKind=%q BatchLanes=%d, want a 3-lane fallback answer",
				i, out.Code, out.Err, out.Fallback, out.FaultKind, out.BatchLanes)
		}
		ref, err := sp.Ref(g, reqs[i].Src, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantSummaryValues(t, out, ids, ref.Values)
	}
	st := p.Status()
	if st.Runs != 1 || st.Cache.Entries != 0 {
		t.Errorf("runs=%d cache entries=%d, want one group run and nothing cached", st.Runs, st.Cache.Entries)
	}
	if len(st.Breakers) != 1 || st.Breakers[0].Faults != 1 || st.Breakers[0].Fallbacks != 1 {
		t.Errorf("breakers = %+v, want one key fed one fault and one fallback", st.Breakers)
	}
}

// TestCachedOutcomesDoNotPinResults: the cache and the trace ring keep each
// answer's summary and counters, not the run's n-element result vector — a
// full cache on a 50k-vertex graph must cost far less than one vector per
// entry. (Outcome.Stats used to alias the QueryResult's own Stats field,
// pinning the whole result for as long as the entry lived.)
func TestCachedOutcomesDoNotPinResults(t *testing.T) {
	g, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 224, Cols: 224, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 32
	p := newTestPipeline(t, Config{
		Graphs:       map[string]*graphit.Graph{"road": g},
		CacheEntries: entries,
		TraceRing:    entries,
	})
	defer mustClose(t, p)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the engines' sync.Pools
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for src := uint32(0); src < entries; src++ {
		if out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: src, Delta: 1024}); out.Code != CodeOK {
			t.Fatalf("src=%d: %s: %v", src, out.Code, out.Err)
		}
	}
	if st := p.Status().Cache; st.Entries != entries {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, entries)
	}
	after := heap()
	vectors := uint64(entries * 8 * g.NumVertices())
	if grown := int64(after) - int64(before); grown > int64(vectors/4) {
		t.Errorf("heap grew %d bytes over %d cached answers; one pinned result vector each would be %d", grown, entries, vectors)
	}
}

// TestCacheEpochSweep is the regression test for the epoch-sweep satellite:
// once a mutation advances the epoch and no snapshot pins the old one, the
// first new-epoch plan reclaims every dead entry eagerly — counted as
// Invalidated, distinct from capacity/TTL evictions.
func TestCacheEpochSweep(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{
		Graphs:       map[string]*graphit.Graph{"line": lineGraph(t)},
		CacheEntries: 64,
	})
	defer mustClose(t, p)

	// Two epoch-0 entries under distinct keys.
	for _, src := range []uint32{0, 1} {
		req := Request{Algo: "sssp", Graph: "line", Src: src, Vertices: []uint32{2}}
		if out := p.Do(context.Background(), req); out.Code != CodeOK {
			t.Fatalf("src=%d: %s: %v", src, out.Code, out.Err)
		}
	}
	if st := p.Status().Cache; st.Entries != 2 || st.Invalidated != 0 {
		t.Fatalf("pre-mutation cache = %+v, want 2 entries, 0 invalidated", st)
	}

	if _, err := p.Live("line").ApplyBatch([]livegraph.Op{
		{Kind: livegraph.OpReweight, Src: 1, Dst: 2, W: 2},
	}); err != nil {
		t.Fatal(err)
	}

	// The first post-mutation plan sweeps both dead entries and stores one
	// fresh epoch-1 entry.
	req := Request{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}
	out := p.Do(context.Background(), req)
	if out.Code != CodeOK || out.Cached || out.Epoch != 1 {
		t.Fatalf("post-mutation query: %+v", out)
	}
	st := p.Status().Cache
	if st.Invalidated != 2 {
		t.Errorf("invalidated = %d, want 2 (both epoch-0 entries swept)", st.Invalidated)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (only the fresh epoch-1 answer)", st.Entries)
	}
}

// TestConfigValidation pins New's construction-time checks: each rejected
// field surfaces as a typed *ConfigError naming the field, and the
// historically dangerous MaxBudget-below-minimum shape — which the old
// cap-then-floor clamp silently turned into budgets above the configured
// maximum — is refused outright.
func TestConfigValidation(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := map[string]*graphit.Graph{"road": testGraph(t)}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative MaxConcurrent", Config{MaxConcurrent: -1}, "MaxConcurrent"},
		{"negative QueueDepth", Config{QueueDepth: -1}, "QueueDepth"},
		{"negative DefaultBudget", Config{DefaultBudget: -time.Second}, "DefaultBudget"},
		{"negative MaxBudget", Config{MaxBudget: -time.Second}, "MaxBudget"},
		{"MaxBudget below minimum", Config{MaxBudget: minBudget / 2}, "MaxBudget"},
		{"negative CacheEntries", Config{CacheEntries: -1}, "CacheEntries"},
		{"negative CacheTTL", Config{CacheTTL: -time.Second}, "CacheTTL"},
		{"negative BatchWindow", Config{BatchWindow: -time.Second}, "BatchWindow"},
		{"negative BatchMaxLanes", Config{BatchMaxLanes: -1}, "BatchMaxLanes"},
		{"negative MaxVertices", Config{MaxVertices: -1}, "MaxVertices"},
	}
	for _, tc := range cases {
		tc.cfg.Graphs = g
		_, err := New(tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: New err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}

	// The boundary itself is legal: MaxBudget == minBudget is satisfiable.
	p, err := New(Config{Graphs: g, MaxBudget: minBudget})
	if err != nil {
		t.Fatalf("MaxBudget == minBudget rejected: %v", err)
	}
	mustClose(t, p)
}

// TestMaxVerticesCap: an over-limit Vertices selection is a plan-stage
// rejection (CodeBadRequest) — it never reaches the engine or mints an
// oversized summary.
func TestMaxVerticesCap(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{MaxVertices: 4})
	defer mustClose(t, p)

	out := p.Do(context.Background(), Request{
		Algo: "sssp", Graph: "road", Src: 0, Vertices: []uint32{0, 1, 2, 3, 4},
	})
	if out.Code != CodeBadRequest {
		t.Fatalf("over-limit vertices: Code=%s Err=%v, want bad_request", out.Code, out.Err)
	}
	if out.Err == nil || !strings.Contains(out.Err.Error(), "limit is 4") {
		t.Errorf("error %v does not name the limit", out.Err)
	}

	// Exactly at the limit is fine.
	out = p.Do(context.Background(), Request{
		Algo: "sssp", Graph: "road", Src: 0, Vertices: []uint32{0, 1, 2, 3},
	})
	if out.Code != CodeOK {
		t.Fatalf("at-limit vertices: %s: %v", out.Code, out.Err)
	}
}
