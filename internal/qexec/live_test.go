package qexec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/obs"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// lineGraph builds the two-hop path 0 -> 1 (w 5) -> 2 (w 10), weighted,
// directed, with in-edges — the smallest graph where a reweight visibly
// changes an SSSP answer.
func lineGraph(t testing.TB) *graphit.Graph {
	t.Helper()
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 1, Dst: 2, W: 10},
	}, graph.BuildOptions{NumVertices: 3, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func distTo2(t *testing.T, out *Outcome) int64 {
	t.Helper()
	if out.Code != CodeOK {
		t.Fatalf("outcome = %s: %v", out.Code, out.Err)
	}
	v, ok := out.Summary.Values["2"]
	if !ok {
		t.Fatalf("no value for vertex 2 in %+v", out.Summary)
	}
	return v
}

// TestMutationInvalidatesCache proves the epoch-keyed cache contract: a
// cached answer is served again within an epoch, and a mutation makes it
// unreachable — the next identical query runs the engine on the new graph
// and returns the new answer, never the stale cached one.
func TestMutationInvalidatesCache(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{
		Graphs:       map[string]*graphit.Graph{"line": lineGraph(t)},
		CacheEntries: 64,
	})
	defer mustClose(t, p)
	req := Request{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}

	out1 := p.Do(context.Background(), req)
	if got := distTo2(t, out1); got != 15 {
		t.Fatalf("epoch-0 distance = %d, want 15", got)
	}
	if out1.Epoch != 0 || out1.Cached {
		t.Fatalf("first answer: epoch %d cached %v", out1.Epoch, out1.Cached)
	}
	out2 := p.Do(context.Background(), req)
	if !out2.Cached || distTo2(t, out2) != 15 {
		t.Fatalf("second identical query not served from cache: %+v", out2)
	}

	if _, err := p.Live("line").ApplyBatch([]livegraph.Op{
		{Kind: livegraph.OpReweight, Src: 1, Dst: 2, W: 2},
	}); err != nil {
		t.Fatal(err)
	}

	out3 := p.Do(context.Background(), req)
	if out3.Cached {
		t.Fatal("post-mutation query served from the pre-mutation cache — stale answer")
	}
	if got := distTo2(t, out3); got != 7 {
		t.Fatalf("epoch-1 distance = %d, want 7", got)
	}
	if out3.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", out3.Epoch)
	}

	st := p.Status()
	if len(st.Graphs) != 1 || st.Graphs[0].Name != "line" || st.Graphs[0].Epoch != 1 {
		t.Fatalf("status graphs = %+v", st.Graphs)
	}
}

// TestPlanPinsSnapshotAgainstConcurrentMutation is the qexec-level stale
// drill (run it with -race): queriers hammer one request shape through the
// full pipeline — cache and coalescer enabled — while a mutator reweights
// the answer-determining edge every few milliseconds. The invariant that
// must hold for every single OK outcome: the answer matches the weight
// that was live at the outcome's own epoch. Any cross-epoch cache or
// coalesce leak breaks the equation immediately — and so does a weight
// plane recycled under a run: test binaries overwrite a retired plane with
// -1, so such a run would answer 5 + (-1).
func TestPlanPinsSnapshotAgainstConcurrentMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency drill")
	}
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{
		Graphs:       map[string]*graphit.Graph{"line": lineGraph(t)},
		CacheEntries: 256,
		Coalesce:     true,
	})
	defer mustClose(t, p)

	const epochs = 60
	// weightAt[k] is edge 1->2's weight during epoch k.
	weightAt := make([]int64, epochs+1)
	weightAt[0] = 10
	for k := 1; k <= epochs; k++ {
		weightAt[k] = int64(k)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	req := Request{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}

	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				out := p.Do(context.Background(), req)
				if out.Code != CodeOK {
					errs <- fmt.Errorf("querier %d iter %d: %s: %v", q, i, out.Code, out.Err)
					return
				}
				got := out.Summary.Values["2"]
				if out.Epoch > epochs {
					errs <- fmt.Errorf("querier %d: impossible epoch %d", q, out.Epoch)
					return
				}
				if got < 5 {
					errs <- fmt.Errorf("querier %d iter %d: epoch %d answer %d — the run read a negative weight, its plane was recycled under it", q, i, out.Epoch, got)
					return
				}
				if want := 5 + weightAt[out.Epoch]; got != want {
					errs <- fmt.Errorf("querier %d iter %d: epoch %d answer %d, want %d (cached=%v coalesced=%v) — stale cross-epoch result",
						q, i, out.Epoch, got, want, out.Cached, out.Coalesced)
					return
				}
			}
		}(q)
	}

	live := p.Live("line")
	for k := 1; k <= epochs; k++ {
		if _, err := live.ApplyBatch([]livegraph.Op{
			{Kind: livegraph.OpReweight, Src: 1, Dst: 2, W: graph.Weight(k)},
		}); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := live.Epoch(); got != epochs {
		t.Fatalf("final epoch = %d, want %d", got, epochs)
	}
	if st := live.Status(); st.PlanesRecycled == 0 {
		t.Fatalf("no weight plane was recycled during the drill: %+v", st)
	}
}

// TestExternallyOwnedLiveDrains covers the cfg.Live path: the pipeline
// serves from a caller-owned Live, reports draining once that Live closes,
// and does not close it itself.
func TestExternallyOwnedLiveDrains(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	l := livegraph.New("line", lineGraph(t), livegraph.Config{})
	p, err := New(Config{Live: map[string]*livegraph.Live{"line": l}})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}
	if out := p.Do(context.Background(), req); out.Code != CodeOK {
		t.Fatalf("query failed: %v", out.Err)
	}
	l.Close()
	out := p.Do(context.Background(), req)
	if out.Code != CodeDraining {
		t.Fatalf("query against a closed live graph: code %s, want draining", out.Code)
	}
	mustClose(t, p)
	// Close must not have touched the external Live (already closed here,
	// and Close is idempotent anyway — this is a no-panic check).
	l.Close()
}

// TestBreakerGaugeCardinalityCap is the satellite-2 regression test: a
// hostile stream of distinct breaker keys must not mint unbounded
// qexec_breaker_state series — the gauge count caps at
// maxBreakerGaugeKeys, overflow is counted, and the pre-cap keys keep
// their gauges.
func TestBreakerGaugeCardinalityCap(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPipeline(t, Config{Metrics: reg})
	defer mustClose(t, p)

	const hostile = 500
	for i := 0; i < hostile; i++ {
		p.met.ensureBreakerGauge(fmt.Sprintf("algo%d/strategy%d", i, i), p.breakers)
		// Re-offering a seen key must not double-count anything.
		p.met.ensureBreakerGauge(fmt.Sprintf("algo%d/strategy%d", i, i), p.breakers)
	}
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	series := strings.Count(buf.String(), "\nqexec_breaker_state{")
	if series > maxBreakerGaugeKeys {
		t.Fatalf("%d breaker gauges exported, cap is %d", series, maxBreakerGaugeKeys)
	}
	if got := p.met.breakerDropped.Value(); got != hostile-maxBreakerGaugeKeys {
		t.Fatalf("dropped counter = %d, want %d", got, hostile-maxBreakerGaugeKeys)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("qexec_breaker_gauges_dropped_total %d", hostile-maxBreakerGaugeKeys)) {
		t.Fatal("dropped counter not exported")
	}
}

// TestTraceRingClipsHostileMetadata is the other satellite-2 half: a bad
// request echoing a megabyte-long algorithm name must not be retained
// verbatim in the trace ring.
func TestTraceRingClipsHostileMetadata(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	p := newTestPipeline(t, Config{TraceRing: 8})
	defer mustClose(t, p)

	huge := strings.Repeat("x", 1<<20)
	out := p.Do(context.Background(), Request{Algo: huge, Graph: huge})
	if out.Code != CodeBadRequest {
		t.Fatalf("code = %s, want bad_request", out.Code)
	}
	traces := p.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	qt := traces[0]
	if len(qt.Algo) > maxTraceField+32 || len(qt.Graph) > maxTraceField+32 {
		t.Fatalf("trace retained unclipped metadata: algo %d bytes, graph %d bytes", len(qt.Algo), len(qt.Graph))
	}
	if len(qt.Error) > maxTraceError+32 {
		t.Fatalf("trace retained unclipped error: %d bytes", len(qt.Error))
	}
	if !strings.Contains(qt.Algo, "…(truncated)") {
		t.Fatal("clip marker missing")
	}
}

func mustClose(t testing.TB, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}
