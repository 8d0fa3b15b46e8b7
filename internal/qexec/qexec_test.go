package qexec

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
)

// testGraph builds the small road network the pipeline tests query: 16x16,
// weighted, symmetric, with coordinates — valid input for every algorithm.
func testGraph(t testing.TB) *graphit.Graph {
	t.Helper()
	g, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 16, Cols: 16, Seed: 7, DeleteFrac: 0.05})
	if err != nil {
		t.Fatalf("RoadGrid: %v", err)
	}
	return g
}

func newTestPipeline(t testing.TB, cfg Config) *Pipeline {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graphit.Graph{"road": testGraph(t)}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func allVertices(g *graphit.Graph) []uint32 {
	ids := make([]uint32, g.NumVertices())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClampBudget pins the budget clamp: 0 takes the default, over-max is
// capped, and anything below the floor (including tiny positive values) is
// raised to minBudget.
func TestClampBudget(t *testing.T) {
	p := newTestPipeline(t, Config{DefaultBudget: 2 * time.Second, MaxBudget: 30 * time.Second})
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, 2 * time.Second},               // zero -> default
		{-50, 2 * time.Second},             // negative -> default
		{500, 500 * time.Millisecond},      // in range -> as requested
		{10 * 60 * 1000, 30 * time.Second}, // over max -> capped
		{1, minBudget},                     // under min -> floored
	}
	for _, tc := range cases {
		if got := p.clampBudget(tc.ms); got != tc.want {
			t.Errorf("clampBudget(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
	// The default budget itself is clamped to the ceiling.
	p2 := newTestPipeline(t, Config{DefaultBudget: time.Minute, MaxBudget: 30 * time.Second})
	if got := p2.clampBudget(0); got != 30*time.Second {
		t.Errorf("default over max: clampBudget(0) = %v, want 30s", got)
	}
}

// TestPlanCanonicalCacheKey proves key stability: any two requests meaning
// the same query — default fields spelled out or left zero — produce
// byte-identical cache keys, while every result-determining difference
// (schedule, source, vertices selection) produces a distinct key.
func TestPlanCanonicalCacheKey(t *testing.T) {
	p := newTestPipeline(t, Config{})
	key := func(req Request) string {
		t.Helper()
		pl, err := p.plan(&req)
		if err != nil {
			t.Fatalf("plan(%+v): %v", req, err)
		}
		return pl.CacheKey
	}

	base := Request{Algo: "sssp", Graph: "road", Src: 3}
	spelled := Request{
		Algo: "sssp", Graph: "road", Src: 3,
		// The scheduling-language defaults, written out explicitly.
		Strategy: "eager_with_fusion", Direction: "SparsePush",
		Delta: 1, NumBuckets: 128,
	}
	if key(base) != key(spelled) {
		t.Errorf("default-spelled request keyed differently:\n %s\n %s", key(base), key(spelled))
	}
	// Budget never fragments the cache.
	budgeted := base
	budgeted.BudgetMS = 1500
	if key(base) != key(budgeted) {
		t.Error("budget leaked into the cache key")
	}
	// dst is canonicalized away for algorithms that ignore it...
	dstIgnored := base
	dstIgnored.Dst = 7
	if key(base) != key(dstIgnored) {
		t.Error("ignored dst fragmented the cache key")
	}
	// ...but distinguishes pair queries.
	pair7 := Request{Algo: "ppsp", Graph: "road", Src: 3, Dst: 7}
	pair8 := Request{Algo: "ppsp", Graph: "road", Src: 3, Dst: 8}
	if key(pair7) == key(pair8) {
		t.Error("ppsp dst not in the cache key")
	}
	// Result-determining differences split the key.
	for name, req := range map[string]Request{
		"strategy": {Algo: "sssp", Graph: "road", Src: 3, Strategy: "lazy"},
		"delta":    {Algo: "sssp", Graph: "road", Src: 3, Delta: 64},
		"src":      {Algo: "sssp", Graph: "road", Src: 4},
		"vertices": {Algo: "sssp", Graph: "road", Src: 3, Vertices: []uint32{1, 2, 3}},
	} {
		if key(req) == key(base) {
			t.Errorf("%s difference did not change the cache key", name)
		}
	}
	// Different selections never share a key (satellite: a cached answer
	// must not be served across vertices selections).
	a := Request{Algo: "sssp", Graph: "road", Src: 3, Vertices: []uint32{1, 2, 3}}
	b := Request{Algo: "sssp", Graph: "road", Src: 3, Vertices: []uint32{1, 2, 4}}
	if key(a) == key(b) {
		t.Error("distinct vertices selections share a cache key")
	}
}

// TestResultCacheLRUTTL unit-tests the cache stage: recency eviction at
// capacity and TTL expiry under an injected clock.
func TestResultCacheLRUTTL(t *testing.T) {
	c := newResultCache(2, time.Minute)
	clk := time.Unix(1000, 0)
	c.now = func() time.Time { return clk }

	reached := 5
	sum := algo.Summary{Reached: &reached}
	c.put("a", "g", 1, sum, nil)
	c.put("b", "g", 1, sum, nil)
	if _, ok := c.get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	// Capacity 2: inserting c evicts the LRU entry — b, since a was just
	// touched.
	c.put("c", "g", 1, sum, nil)
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	// TTL: entries expire, and expiry counts as a miss + eviction.
	clk = clk.Add(2 * time.Minute)
	if _, ok := c.get("a"); ok {
		t.Fatal("stale entry served past its TTL")
	}
	st := c.status()
	if st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("status = %+v, want 1 entry (c) and 2 evictions", st)
	}
	if e, ok := c.get("c"); ok || e != nil {
		// c was inserted at the old clock too — also stale now.
		t.Fatal("second stale entry served past its TTL")
	}
}

// gateHook returns a BaseContext that blocks every round-2 relax phase on
// gate — a deterministic way to hold a run in flight (the round watchdog
// must be configured far above the test's duration).
func gateHook(gate <-chan struct{}) func(context.Context) context.Context {
	hook := func(phase string, round int64, _ int) {
		if phase == core.PhaseRelax && round == 2 {
			<-gate
		}
	}
	return func(ctx context.Context) context.Context {
		return core.WithFaultHook(ctx, hook)
	}
}

func wantSummaryValues(t testing.TB, out *Outcome, ids []uint32, want []int64) {
	t.Helper()
	if len(out.Summary.Values) != len(ids) {
		t.Fatalf("outcome has %d values, want %d", len(out.Summary.Values), len(ids))
	}
	for _, id := range ids {
		if got := out.Summary.Values[strconv.FormatUint(uint64(id), 10)]; got != want[id] {
			t.Fatalf("vertex %d: got %d, want %d", id, got, want[id])
		}
	}
}

// TestCoalesceSharesOneRun holds a leader mid-round, piles identical
// requests behind it, and proves they all share exactly one engine run —
// the leader's — with correct, identical answers.
func TestCoalesceSharesOneRun(t *testing.T) {
	g := testGraph(t)
	ref, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	p := newTestPipeline(t, Config{
		Graphs:        map[string]*graphit.Graph{"road": g},
		Coalesce:      true,
		RoundTimeout:  time.Minute, // the gate stalls a round on purpose
		DefaultBudget: 30 * time.Second,
		MaxBudget:     time.Minute,
		BaseContext:   gateHook(gate),
	})
	ids := allVertices(g)
	req := Request{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids}

	const n = 6
	outs := make([]*Outcome, n)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = p.Do(context.Background(), req)
		}()
	}
	launch(0)
	waitFor(t, "leader in flight", func() bool { return p.InFlight() == 1 })
	for i := 1; i < n; i++ {
		launch(i)
	}
	waitFor(t, "followers coalesced", func() bool {
		return p.Status().Coalesce.Coalesced == n-1
	})
	close(gate)
	wg.Wait()

	leaders := 0
	for i, out := range outs {
		if out.Code != CodeOK || out.Err != nil {
			t.Fatalf("request %d: code %d err %v", i, out.Code, out.Err)
		}
		if !out.Coalesced {
			leaders++
		}
		wantSummaryValues(t, out, ids, ref)
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
	if runs := p.Status().Runs; runs != 1 {
		t.Fatalf("%d engine runs for %d identical requests, want 1", runs, n)
	}
	st := p.Status().Coalesce
	if st.Leaders != 1 || st.Coalesced != n-1 {
		t.Fatalf("coalesce status %+v, want 1 leader / %d coalesced", st, n-1)
	}
}

// TestCoalesceFaultPropagatesFallback is the torn-result drill: the shared
// run's primary faults (a one-shot injected panic) and its fallback rerun
// produces the answer while followers wait. Every waiter must receive the
// complete fallback outcome — fault kind, fallback marker, and
// reference-equal values — never a torn intermediate.
func TestCoalesceFaultPropagatesFallback(t *testing.T) {
	g := testGraph(t)
	ref, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	// Panic once, in the primary's round-2 relax chunk, and hold round 3 —
	// which only the fallback rerun reaches after that — until the
	// followers have piled in.
	var faulted atomic.Bool
	hook := func(phase string, round int64, _ int) {
		if phase == core.PhaseRelaxChunk && round == 2 && faulted.CompareAndSwap(false, true) {
			panic("hostile edge function")
		}
		if phase == core.PhaseRelax && round == 3 && faulted.Load() {
			<-gate
		}
	}
	p := newTestPipeline(t, Config{
		Graphs:        map[string]*graphit.Graph{"road": g},
		Coalesce:      true,
		Workers:       2,
		RoundTimeout:  time.Minute,
		DefaultBudget: 30 * time.Second,
		MaxBudget:     time.Minute,
		BaseContext: func(ctx context.Context) context.Context {
			return core.WithFaultHook(ctx, hook)
		},
	})
	ids := allVertices(g)
	req := Request{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids}

	const n = 5
	outs := make([]*Outcome, n)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = p.Do(context.Background(), req)
		}()
	}
	launch(0)
	waitFor(t, "leader in flight", func() bool { return p.InFlight() == 1 })
	for i := 1; i < n; i++ {
		launch(i)
	}
	waitFor(t, "followers coalesced", func() bool {
		return p.Status().Coalesce.Coalesced == n-1
	})
	close(gate)
	wg.Wait()

	for i, out := range outs {
		if out.Code != CodeOK || out.Err != nil {
			t.Fatalf("request %d: code %d err %v", i, out.Code, out.Err)
		}
		if !out.Fallback || out.FaultKind != graphit.FaultKindPanic {
			t.Fatalf("request %d: fallback=%v fault=%q — fallback outcome not propagated whole",
				i, out.Fallback, out.FaultKind)
		}
		wantSummaryValues(t, out, ids, ref)
	}
	if runs := p.Status().Runs; runs != 1 {
		t.Fatalf("%d engine runs, want 1 (shared faulted flight)", runs)
	}
}

// TestCacheHitSkipsEngine: a repeated identical query is served from the
// cache — same summary, zero additional engine runs — while a different
// vertices selection misses and runs.
func TestCacheHitSkipsEngine(t *testing.T) {
	g := testGraph(t)
	p := newTestPipeline(t, Config{
		Graphs:       map[string]*graphit.Graph{"road": g},
		CacheEntries: 8,
		CacheTTL:     time.Minute,
	})
	ids := allVertices(g)
	req := Request{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids}

	first := p.Do(context.Background(), req)
	if first.Code != CodeOK || first.Cached {
		t.Fatalf("first: %+v", first)
	}
	second := p.Do(context.Background(), req)
	if second.Code != CodeOK || !second.Cached {
		t.Fatalf("second not served from cache: %+v", second)
	}
	if len(second.Summary.Values) != len(first.Summary.Values) {
		t.Fatal("cached summary differs from the original")
	}
	for k, v := range first.Summary.Values {
		if second.Summary.Values[k] != v {
			t.Fatalf("cached value for %s: %d != %d", k, second.Summary.Values[k], v)
		}
	}
	if runs := p.Status().Runs; runs != 1 {
		t.Fatalf("cache hit still ran the engine (%d runs)", runs)
	}
	// A different selection is a different key: it must miss and run.
	sub := Request{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids[:5]}
	third := p.Do(context.Background(), sub)
	if third.Code != CodeOK || third.Cached {
		t.Fatalf("different selection served from cache: %+v", third)
	}
	if len(third.Summary.Values) != 5 {
		t.Fatalf("selection answered with %d values, want 5", len(third.Summary.Values))
	}
	if runs := p.Status().Runs; runs != 2 {
		t.Fatalf("%d runs after distinct-selection query, want 2", runs)
	}
}

// TestPlanBoundsDelta: a request ∆ up to MaxDeltaFactor × the graph's
// largest edge weight runs; one above it is a bad request (HTTP 400)
// carrying ErrDeltaBound, and never reaches the engine.
func TestPlanBoundsDelta(t *testing.T) {
	g := testGraph(t)
	p := newTestPipeline(t, Config{Graphs: map[string]*graphit.Graph{"road": g}})
	defer mustClose(t, p)
	bound := MaxDeltaFactor * int64(g.MaxWeight())
	if bound < 2048 {
		t.Fatalf("bound %d: the road grid's tuned ∆=2048 must stay admissible", bound)
	}
	for _, strategy := range []string{"lazy", "eager_with_fusion"} {
		ok := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Strategy: strategy, Delta: bound})
		if ok.Code != CodeOK {
			t.Fatalf("%s ∆=%d (the bound): %s (%v), want ok", strategy, bound, ok.Code, ok.Err)
		}
		runs := p.Status().Runs
		for _, d := range []int64{bound + 1, 1 << 40} {
			out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Strategy: strategy, Delta: d})
			if out.Code != CodeBadRequest || !errors.Is(out.Err, ErrDeltaBound) {
				t.Errorf("%s ∆=%d: %s (%v), want a bad request carrying ErrDeltaBound", strategy, d, out.Code, out.Err)
			}
		}
		if got := p.Status().Runs; got != runs {
			t.Errorf("%s: rejected requests ran the engine (%d runs, want %d)", strategy, got, runs)
		}
	}
}
