package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/faults"
	"graphit/internal/server"
)

// testGraph builds the small road network every server test queries: 16x16,
// weighted, symmetric, with coordinates — valid input for every algorithm.
func testGraph(t testing.TB) *graphit.Graph {
	t.Helper()
	g, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 16, Cols: 16, Seed: 7, DeleteFrac: 0.05})
	if err != nil {
		t.Fatalf("RoadGrid: %v", err)
	}
	return g
}

// startServer builds a Server over cfg (filling Graphs with the test graph
// if unset) and mounts it on an httptest.Server.
func startServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graphit.Graph{"road": testGraph(t)}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ts.Client().CloseIdleConnections()
	})
	return srv, ts
}

// postQuery sends q to /query and decodes the response.
func postQuery(t testing.TB, ts *httptest.Server, q server.Query) (int, *server.Response) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out server.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, &out
}

// allVertices lists every vertex id, for full-vector result requests.
func allVertices(g *graphit.Graph) []uint32 {
	ids := make([]uint32, g.NumVertices())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// wantValues asserts that the response's Values equal want at every
// requested vertex.
func wantValues(t testing.TB, resp *server.Response, ids []uint32, want []int64) {
	t.Helper()
	if len(resp.Values) != len(ids) {
		t.Fatalf("response has %d values, want %d", len(resp.Values), len(ids))
	}
	for _, v := range ids {
		got, ok := resp.Values[strconv.FormatUint(uint64(v), 10)]
		if !ok || got != want[v] {
			t.Fatalf("vertex %d: got %d (present=%v), want %d", v, got, ok, want[v])
		}
	}
}

func TestHealthReadyStatus(t *testing.T) {
	_, ts := startServer(t, server.Config{})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Draining || st.Graphs["road"] != 256 || st.Admission.MaxConcurrent < 1 {
		t.Fatalf("statusz = %+v", st)
	}
}

func TestQueryMatchesSequentialReference(t *testing.T) {
	g := testGraph(t)
	_, ts := startServer(t, server.Config{Graphs: map[string]*graphit.Graph{"road": g}})
	ids := allVertices(g)

	ref, err := algo.Dijkstra(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := postQuery(t, ts, server.Query{
		Algo: "sssp", Graph: "road", Src: 3, Strategy: "lazy", Delta: 64, Vertices: ids,
	})
	if status != 200 || resp.Fallback || resp.Error != "" {
		t.Fatalf("status %d, resp %+v", status, resp)
	}
	if resp.Breaker != "closed" || resp.Stats == nil || resp.Stats.Rounds == 0 {
		t.Fatalf("healthy query metadata wrong: %+v", resp)
	}
	wantValues(t, resp, ids, ref)

	// Pair query: dist reported for dst only.
	status, resp = postQuery(t, ts, server.Query{Algo: "ppsp", Graph: "road", Src: 3, Dst: 255})
	if status != 200 || resp.PairDist == nil || *resp.PairDist != ref[255] {
		t.Fatalf("ppsp: status %d resp %+v, want dist %d", status, resp, ref[255])
	}

	// k-core on the same (symmetric) graph.
	coreRef, err := algo.RefKCore(g)
	if err != nil {
		t.Fatal(err)
	}
	status, resp = postQuery(t, ts, server.Query{
		Algo: "kcore", Graph: "road", Strategy: "lazy_constant_sum", Vertices: ids,
	})
	if status != 200 {
		t.Fatalf("kcore status %d: %s", status, resp.Error)
	}
	wantValues(t, resp, ids, coreRef)
}

func TestValidationRejectsBeforeAdmission(t *testing.T) {
	rmat, err := graphit.RMAT(graphit.DefaultRMAT(6, 4, 1)) // not symmetric
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, server.Config{
		Graphs: map[string]*graphit.Graph{"road": testGraph(t), "rmat": rmat},
	})
	cases := []struct {
		name string
		q    server.Query
		frag string // must appear in the error
	}{
		{"unknown algo", server.Query{Algo: "pagerank", Graph: "road"}, "valid: sssp"},
		{"unknown graph", server.Query{Algo: "sssp", Graph: "nope"}, `unknown graph "nope"`},
		{"unknown strategy", server.Query{Algo: "sssp", Graph: "road", Strategy: "eager"}, "valid: eager_with_fusion"},
		{"unknown direction", server.Query{Algo: "sssp", Graph: "road", Direction: "Sideways"}, "valid: SparsePush"},
		{"asymmetric kcore", server.Query{Algo: "kcore", Graph: "rmat"}, "symmetrized"},
		{"src out of range", server.Query{Algo: "sssp", Graph: "road", Src: 9999}, "out of range"},
		{"missing dst", server.Query{Algo: "ppsp", Graph: "road", Src: 0, Dst: 70000}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, resp := postQuery(t, ts, tc.q)
			if status != 400 {
				t.Fatalf("status %d, want 400 (resp %+v)", status, resp)
			}
			if !strings.Contains(resp.Error, tc.frag) {
				t.Fatalf("error %q missing %q", resp.Error, tc.frag)
			}
		})
	}
}

// gateHook returns a BaseContext that blocks every round-2 relax phase on
// gate — a deterministic way to hold a query in flight (the round watchdog
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

func TestAdmissionShedsOverloadWith429(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := startServer(t, server.Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		RoundTimeout:  time.Minute,
		MaxBudget:     time.Minute,
		DefaultBudget: 30 * time.Second,
		BaseContext:   gateHook(gate),
	})
	q := server.Query{Algo: "sssp", Graph: "road", Src: 0}

	// First query occupies the only run slot (blocked at its round-2 gate).
	type result struct {
		status int
		resp   *server.Response
	}
	first := make(chan result, 1)
	go func() {
		st, resp := postQuery(t, ts, q)
		first <- result{st, resp}
	}()
	waitFor(t, "first query in flight", func() bool { return srv.InFlight() == 1 })

	// Second query fills the bounded queue.
	second := make(chan result, 1)
	go func() {
		st, resp := postQuery(t, ts, q)
		second <- result{st, resp}
	}()
	waitFor(t, "second query queued", func() bool { return statusOf(t, ts).Admission.Queued == 1 })

	// Third query overflows: shed fast with 429 + Retry-After.
	body, _ := json.Marshal(q)
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := statusOf(t, ts); st.Admission.Shed != 1 {
		t.Fatalf("admission status %+v, want shed=1", st.Admission)
	}

	// Releasing the gate lets both held queries complete successfully.
	close(gate)
	for name, ch := range map[string]chan result{"first": first, "second": second} {
		r := <-ch
		if r.status != 200 || r.resp.Error != "" {
			t.Fatalf("%s query: status %d, error %q", name, r.status, r.resp.Error)
		}
	}
}

func TestBudgetMapsToDeadline(t *testing.T) {
	in := faults.New(faults.Trigger{
		Phase: core.PhaseRelaxChunk, Delay: 50 * time.Millisecond, Repeat: true,
	})
	_, ts := startServer(t, server.Config{
		RoundTimeout: time.Minute,
		BaseContext:  in.Context,
	})
	// Every relax chunk stalls 50ms; a 60ms budget exhausts mid-run.
	status, resp := postQuery(t, ts, server.Query{
		Algo: "sssp", Graph: "road", Src: 0, BudgetMS: 60,
	})
	if status != 504 {
		t.Fatalf("status %d, want 504 (resp %+v)", status, resp)
	}
	if !strings.Contains(resp.Error, "budget exhausted") {
		t.Fatalf("error %q, want budget exhausted", resp.Error)
	}
	if resp.Stats == nil {
		t.Fatal("504 response lost the partial stats")
	}
}

func TestFaultTripsBreakerAndFallbackAnswers(t *testing.T) {
	g := testGraph(t)
	ref, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A transient fault: each request's first relax chunk of rounds 1-3
	// panics once, so the primary faults and the fallback rerun, finding the
	// trigger spent, answers.
	var injecting atomic.Bool
	injecting.Store(true)
	inject := func(ctx context.Context) context.Context {
		if !injecting.Load() {
			return ctx
		}
		in := faults.New(faults.Trigger{
			Phase:      core.PhaseRelaxChunk,
			Match:      func(r int64) bool { return r <= 3 },
			PanicValue: "hostile edge function",
		})
		return in.Context(ctx)
	}
	_, ts := startServer(t, server.Config{
		Graphs:           map[string]*graphit.Graph{"road": g},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the test's duration
		BaseContext:      inject,
	})
	ids := allVertices(g)
	q := server.Query{Algo: "sssp", Graph: "road", Src: 0, Vertices: ids}

	// Fault 1: primary panics, the answer transparently comes from the
	// fallback schedule and still matches the reference.
	status, resp := postQuery(t, ts, q)
	if status != 200 || !resp.Fallback || resp.FaultKind != graphit.FaultKindPanic {
		t.Fatalf("fault 1: status %d resp %+v", status, resp)
	}
	wantValues(t, resp, ids, ref)
	if resp.Breaker != "closed" {
		t.Fatalf("breaker %q after 1 fault, want closed (threshold 2)", resp.Breaker)
	}

	// Fault 2 trips the breaker.
	status, resp = postQuery(t, ts, q)
	if status != 200 || resp.Breaker != "open" {
		t.Fatalf("fault 2: status %d breaker %q, want open", status, resp.Breaker)
	}

	// Open breaker: served directly by the fallback, no primary attempt —
	// so, with injection off, no fault kind, but still the right answer.
	// (With injection on, the lone fallback would take the request's
	// transient fault itself and answer a typed 500.)
	injecting.Store(false)
	status, resp = postQuery(t, ts, q)
	injecting.Store(true)
	if status != 200 || !resp.Fallback || resp.FaultKind != "" {
		t.Fatalf("open-breaker query: status %d resp.Fallback=%v resp.FaultKind=%q", status, resp.Fallback, resp.FaultKind)
	}
	wantValues(t, resp, ids, ref)

	// The tripped key is visible in /statusz; an untouched key is not open.
	st := statusOf(t, ts)
	found := false
	for _, br := range st.Breakers {
		if br.Key == "sssp/eager_with_fusion" {
			found = true
			if br.State != "open" || br.Trips != 1 || br.Fallbacks < 2 {
				t.Fatalf("breaker status %+v", br)
			}
		}
	}
	if !found {
		t.Fatalf("sssp/eager_with_fusion not in statusz: %+v", st.Breakers)
	}

	// A different strategy key still runs its primary (and faults its own
	// breaker count) — keys are independent.
	status, resp = postQuery(t, ts, server.Query{Algo: "sssp", Graph: "road", Src: 0, Strategy: "lazy", Vertices: ids})
	if status != 200 || resp.FaultKind != graphit.FaultKindPanic {
		t.Fatalf("independent key: status %d resp %+v", status, resp)
	}
	wantValues(t, resp, ids, ref)
}

func statusOf(t testing.TB, ts *httptest.Server) server.Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
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
