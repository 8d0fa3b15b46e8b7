package server_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/faults"
	"graphit/internal/parallel"
	"graphit/internal/server"
	"graphit/internal/testutil"
)

// TestFaultDrill is the PR's acceptance drill, run under -race in CI: a
// sustained barrage of concurrent mixed queries while every engine run has
// panics injected into its early relax rounds. The service must never crash,
// must answer every query correctly via its fallback path, must trip
// breakers, and — once the injection stops — must half-open, probe, recover,
// and shut down without leaking a goroutine.
func TestFaultDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("fault drill is a long test")
	}
	defer testutil.LeakCheck(t, parallel.CloseIdle)()

	g, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 24, Cols: 24, Seed: 11, DeleteFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	refDist, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	refCore, err := algo.RefKCore(g)
	if err != nil {
		t.Fatal(err)
	}

	// While injecting is set, every query's context gets a fresh injector.
	// Most queries get panics in every relax chunk of rounds <= 3 — early
	// rounds always make progress, so the serial-retry fallback converges,
	// and Repeat keeps the parallel primary faulting on every attempt. Every
	// 8th query instead gets a one-shot round stall long enough to trip the
	// 2s round watchdog, so the drill exercises both fault kinds. (A stall
	// only bites when the query's primary actually runs and reaches round 2
	// — open breakers skip it, and setcover's own round loop has no engine
	// watchdog or relax-chunk hook to stall — so the rate is set well above
	// the one-in-a-drill minimum the assertion needs.)
	var injecting, stallOnly atomic.Bool
	var reqCounter atomic.Int64
	injecting.Store(true)
	base := func(ctx context.Context) context.Context {
		if !injecting.Load() {
			return ctx
		}
		if stallOnly.Load() || reqCounter.Add(1)%8 == 0 {
			in := faults.New(faults.DelayAt(core.PhaseRelax, 2, 4*time.Second))
			return in.Context(ctx)
		}
		in := faults.New(faults.Trigger{
			Phase:      core.PhaseRelaxChunk,
			Match:      func(r int64) bool { return r <= 3 },
			Repeat:     true,
			PanicValue: "drill: hostile edge function",
		})
		return in.Context(ctx)
	}

	srv, ts := startServer(t, server.Config{
		Graphs:           map[string]*graphit.Graph{"road": g},
		MaxConcurrent:    4,
		QueueDepth:       200,
		Workers:          2,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		RoundTimeout:     2 * time.Second,
		StuckRounds:      64,
		DefaultBudget:    10 * time.Second,
		MaxBudget:        30 * time.Second,
		BaseContext:      base,
	})

	// Phase 1: 120 concurrent mixed queries under continuous injection.
	const n = 120
	ids := allVertices(g)
	queries := func(i int) server.Query {
		switch i % 5 {
		case 0: // checked full-vector SSSP on the default (eager) strategy
			return server.Query{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids}
		case 1:
			return server.Query{Algo: "sssp", Graph: "road", Src: 0, Strategy: "lazy", Delta: 64}
		case 2:
			return server.Query{Algo: "ppsp", Graph: "road", Src: 0, Dst: uint32(g.NumVertices() - 1)}
		case 3: // checked full-vector k-core
			return server.Query{Algo: "kcore", Graph: "road", Strategy: "lazy_constant_sum", Vertices: ids}
		default:
			return server.Query{Algo: "setcover", Graph: "road"}
		}
	}
	type outcome struct {
		i      int
		status int
		resp   *server.Response
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postQuery(t, ts, queries(i))
			results[i] = outcome{i, st, resp}
		}(i)
	}
	wg.Wait()

	faulted, fellBack, panics, stalls := 0, 0, 0, 0
	for _, r := range results {
		if r.status != 200 {
			t.Fatalf("query %d (%s): status %d, error %q", r.i, r.resp.Algo, r.status, r.resp.Error)
		}
		switch r.resp.FaultKind {
		case graphit.FaultKindPanic:
			faulted++
			panics++
		case graphit.FaultKindStuck:
			faulted++
			stalls++
		}
		if r.resp.Fallback {
			fellBack++
		}
		// Every checked query's answer must equal the sequential reference,
		// no matter which path produced it.
		switch r.i % 5 {
		case 0:
			wantValues(t, r.resp, ids, refDist)
		case 2:
			dst := uint32(g.NumVertices() - 1)
			if r.resp.PairDist == nil || *r.resp.PairDist != refDist[dst] {
				t.Fatalf("query %d: ppsp dist %v, want %d", r.i, r.resp.PairDist, refDist[dst])
			}
		case 3:
			wantValues(t, r.resp, ids, refCore)
		}
	}
	if panics == 0 || fellBack == 0 {
		t.Fatalf("drill saw %d panics, %d fallbacks — injection did not bite", panics, fellBack)
	}
	// Deterministic stall check: a fresh (algo, strategy) key whose breaker
	// is closed, so the primary must run, hit the stall, trip the watchdog,
	// and still answer correctly via the fallback.
	stallOnly.Store(true)
	st, resp := postQuery(t, ts, server.Query{
		Algo: "sssp", Graph: "road", Src: 0, Strategy: "eager_no_fusion", Vertices: ids,
	})
	stallOnly.Store(false)
	if st != 200 || resp.FaultKind != graphit.FaultKindStuck || !resp.Fallback {
		t.Fatalf("stalled query: status %d resp %+v, want 200 with a stuck fault and fallback", st, resp)
	}
	wantValues(t, resp, ids, refDist)
	stalls++
	trips := int64(0)
	for _, br := range statusOf(t, ts).Breakers {
		trips += br.Trips
	}
	if trips == 0 {
		t.Fatal("no breaker tripped under sustained injection")
	}
	t.Logf("drill: %d queries, %d primary faults (%d panics, %d stalls), %d fallbacks, %d breaker trips",
		n, faulted, panics, stalls, fellBack, trips)

	// Phase 2: stop the injection; breakers must half-open after the
	// cooldown, probe successfully, and return to primary service.
	injecting.Store(false)
	recovered := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, resp := postQuery(t, ts, server.Query{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids})
		if st != 200 {
			t.Fatalf("post-injection query: status %d, error %q", st, resp.Error)
		}
		if !resp.Fallback && resp.Breaker == "closed" && resp.FaultKind == "" {
			wantValues(t, resp, ids, refDist)
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("sssp/eager_with_fusion never recovered to primary service after injection stopped")
	}

	// Phase 3: graceful shutdown, goroutine-leak-free (LeakCheck deferred).
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
}
