package server_test

import (
	"context"
	"strings"
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

// TestFaultDrill is the serving layer's fault drill, run under -race in CI:
// a sustained barrage of concurrent mixed queries while most engine runs
// have faults injected. A transient fault (a one-shot trigger per request)
// ends the primary run and the fallback rerun answers; a persistent one
// (Repeat) faults the rerun too. The service must never crash: every 200
// must equal the sequential reference, every other response must be a 500
// naming its fallback and fault kind, breakers must trip, and — once the
// injection stops — they must half-open, probe, recover, and shut down
// without leaking a goroutine.
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
	_, greedy, err := algo.GreedySetCover(g)
	if err != nil {
		t.Fatal(err)
	}

	// While injecting is set, every query's context gets a fresh injector,
	// shared by its primary run and its fallback rerun. Most queries get a
	// one-shot panic in the first relax chunk of rounds <= 3; every 8th gets
	// a one-shot round stall long enough to trip the 2s round watchdog, so
	// the drill exercises both fault kinds; every 10th (offset 5) gets a
	// persistent panic that faults the rerun too. (A fault only bites when
	// a run reaches its phase, and behind an open breaker the lone fallback
	// takes the request's fault itself.) forced, when non-zero,
	// overrides the mix for the deterministic checks after the barrage.
	const (
		mixed = iota
		forceStall
		forceRepeat
	)
	var injecting atomic.Bool
	var forced atomic.Int32
	var reqCounter atomic.Int64
	injecting.Store(true)
	panicAt := faults.Trigger{
		Phase:      core.PhaseRelaxChunk,
		Match:      func(r int64) bool { return r <= 3 },
		PanicValue: "drill: hostile edge function",
	}
	base := func(ctx context.Context) context.Context {
		if !injecting.Load() {
			return ctx
		}
		i, mode := reqCounter.Add(1), forced.Load()
		switch {
		case mode == forceStall || mode == mixed && i%8 == 0:
			return faults.New(faults.DelayAt(core.PhaseRelax, 2, 4*time.Second)).Context(ctx)
		case mode == forceRepeat || mode == mixed && i%10 == 5:
			persistent := panicAt
			persistent.Repeat = true
			return faults.New(persistent).Context(ctx)
		}
		return faults.New(panicAt).Context(ctx)
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

	answered, failed := 0, 0
	panics, stalls := 0, 0 // 200s that followed a primary fault, by kind
	for _, r := range results {
		if r.status != 200 {
			// The rerun faulted too (or ran alone behind an open breaker
			// and took the fault): a typed 500 naming both.
			if r.status != 500 || !r.resp.Fallback || r.resp.FaultKind == "" || r.resp.Error == "" {
				t.Fatalf("query %d (%s): status %d fallback=%v fault_kind=%q error %q, want 200 or a typed 500",
					r.i, r.resp.Algo, r.status, r.resp.Fallback, r.resp.FaultKind, r.resp.Error)
			}
			failed++
			continue
		}
		answered++
		switch r.resp.FaultKind {
		case graphit.FaultKindPanic:
			panics++
		case graphit.FaultKindStuck:
			stalls++
		}
		// Every answer must equal the sequential reference, no matter which
		// path produced it.
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
		case 4: // within 1.5x the sequential greedy cover, as the spine checks
			if c := r.resp.CoverSize; c == nil || *c < 1 || 2**c > 3*greedy {
				t.Fatalf("query %d: setcover cover_size %v, greedy needs %d", r.i, c, greedy)
			}
		}
	}
	if panics == 0 {
		t.Fatalf("no 200 followed a primary panic (%d answered, %d failed) — injection did not bite", answered, failed)
	}
	// Deterministic stall check: a fresh (algo, strategy) key whose breaker
	// is closed, so the primary must run, hit the stall, trip the watchdog,
	// and still answer correctly via the fallback rerun.
	forced.Store(forceStall)
	st, resp := postQuery(t, ts, server.Query{
		Algo: "sssp", Graph: "road", Src: 0, Strategy: "eager_no_fusion", Vertices: ids,
	})
	if st != 200 || resp.FaultKind != graphit.FaultKindStuck || !resp.Fallback {
		t.Fatalf("stalled query: status %d resp %+v, want 200 with a stuck fault and fallback", st, resp)
	}
	wantValues(t, resp, ids, refDist)
	stalls++
	// Deterministic persistent-fault check: another fresh key; the panic
	// fires in the primary and again in the rerun, so the request ends in a
	// typed 500 with the rerun's partial stats.
	forced.Store(forceRepeat)
	st, resp = postQuery(t, ts, server.Query{
		Algo: "ppsp", Graph: "road", Src: 0, Dst: uint32(g.NumVertices() - 1), Strategy: "lazy",
	})
	forced.Store(mixed)
	if st != 500 || !resp.Fallback || resp.FaultKind != graphit.FaultKindPanic ||
		!strings.Contains(resp.Error, "panic") || resp.Stats == nil {
		t.Fatalf("persistent fault: status %d resp %+v, want a typed 500 with fallback, fault kind and stats", st, resp)
	}
	trips := int64(0)
	for _, br := range statusOf(t, ts).Breakers {
		trips += br.Trips
	}
	if trips == 0 {
		t.Fatal("no breaker tripped under sustained injection")
	}
	t.Logf("drill: %d queries, %d answered (%d after a panic, %d after a stall, checks included), %d typed 500s, %d breaker trips",
		n, answered, panics, stalls, failed, trips)

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
