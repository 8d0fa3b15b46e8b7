package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphit"
	"graphit/internal/graph"
	"graphit/internal/server"
)

// lineGraph builds the directed weighted path 0 -> 1 (w 5) -> 2 (w 10) —
// mutable (not symmetric), so /update batches are accepted.
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

// postUpdate sends body to /update and decodes the reply.
func postUpdate(t testing.TB, ts *httptest.Server, body string) (int, *server.UpdateResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /update: %v", err)
	}
	defer resp.Body.Close()
	var out server.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode update response: %v", err)
	}
	return resp.StatusCode, &out
}

// TestUpdateEndToEnd drives the full mutate-then-query loop over HTTP with
// the result cache enabled: the pre-batch answer is served (and cached) at
// epoch 0, a reweight batch advances to epoch 1, and the identical query
// then returns the new answer at the new epoch — the cached epoch-0 answer
// must be unreachable.
func TestUpdateEndToEnd(t *testing.T) {
	srv, ts := startServer(t, server.Config{
		Graphs:       map[string]*graphit.Graph{"line": lineGraph(t)},
		Mutable:      true,
		CacheEntries: 64,
		Metrics:      true,
	})
	defer shutdown(t, srv)
	q := server.Query{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}

	code, resp := postQuery(t, ts, q)
	if code != 200 || resp.Values["2"] != 15 || resp.Epoch != 0 {
		t.Fatalf("pre-batch query: code %d epoch %d values %v", code, resp.Epoch, resp.Values)
	}
	code, resp = postQuery(t, ts, q)
	if code != 200 || !resp.Cached {
		t.Fatalf("identical query not cached: code %d %+v", code, resp)
	}

	code, up := postUpdate(t, ts, `{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":2}]}`)
	if code != 200 {
		t.Fatalf("update: code %d error %q", code, up.Error)
	}
	if up.Epoch != 1 || up.Applied != 1 || up.OverlayOps != 0 {
		t.Fatalf("update response: %+v", up)
	}

	code, resp = postQuery(t, ts, q)
	if code != 200 {
		t.Fatalf("post-batch query: code %d", code)
	}
	if resp.Cached {
		t.Fatal("post-batch query served the pre-batch cached answer — stale across epochs")
	}
	if resp.Values["2"] != 7 || resp.Epoch != 1 {
		t.Fatalf("post-batch query: epoch %d values %v, want epoch 1 value 7", resp.Epoch, resp.Values)
	}

	// /metrics reflects the epoch advance and the applied batch.
	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`livegraph_epoch{graph="line"} 1`,
		`livegraph_batches_total{graph="line"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /statusz carries the live-graph section.
	sr, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st server.Status
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Mutable || len(st.Live) != 1 || st.Live[0].Name != "line" || st.Live[0].Epoch != 1 {
		t.Fatalf("statusz live section: mutable=%v live=%+v", st.Mutable, st.Live)
	}
}

// TestUpdateErrorTaxonomy pins the /update failure contract end to end:
// each rejection class maps to its documented status code — and a long run
// of valid batches is never one of them: there is no backlog to push back on.
func TestUpdateErrorTaxonomy(t *testing.T) {
	srv, ts := startServer(t, server.Config{
		Graphs: map[string]*graphit.Graph{
			"line": lineGraph(t),
			"road": testGraph(t), // symmetric -> immutable
		},
		Mutable:     true,
		MaxBatchOps: 2,
	})
	defer shutdown(t, srv)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"graph":`, 400},
		{"unknown field", `{"graph":"line","opz":[]}`, 400},
		{"trailing garbage", `{"graph":"line","ops":[{"op":"add","src":0,"dst":2,"w":1}]} extra`, 400},
		{"missing graph", `{"ops":[{"op":"add","src":0,"dst":2,"w":1}]}`, 400},
		{"empty batch", `{"graph":"line","ops":[]}`, 400},
		{"unknown op", `{"graph":"line","ops":[{"op":"upsert","src":0,"dst":2}]}`, 400},
		{"negative weight", `{"graph":"line","ops":[{"op":"add","src":0,"dst":2,"w":-1}]}`, 400},
		{"unknown graph", `{"graph":"nope","ops":[{"op":"add","src":0,"dst":2,"w":1}]}`, 404},
		{"add existing edge", `{"graph":"line","ops":[{"op":"add","src":0,"dst":1,"w":1}]}`, 400},
		{"vertex out of range", `{"graph":"line","ops":[{"op":"add","src":0,"dst":99,"w":1}]}`, 400},
		{"batch over cap", `{"graph":"line","ops":[{"op":"add","src":0,"dst":2,"w":1},{"op":"reweight","src":0,"dst":1,"w":2},{"op":"reweight","src":1,"dst":2,"w":2}]}`, 400},
		{"immutable graph", `{"graph":"road","ops":[{"op":"add","src":0,"dst":2,"w":1}]}`, 409},
	}
	for _, tc := range cases {
		if code, resp := postUpdate(t, ts, tc.body); code != tc.want || resp.Error == "" {
			t.Errorf("%s: code %d (want %d), error %q", tc.name, code, tc.want, resp.Error)
		}
	}

	// Every batch is a complete epoch when it is acked, so no number of them
	// builds anything up: 300 in a row all answer 200, none 429.
	for i := 1; i <= 300; i++ {
		body := fmt.Sprintf(`{"graph":"line","ops":[{"op":"reweight","src":0,"dst":1,"w":%d}]}`, 1+i%50)
		if code, resp := postUpdate(t, ts, body); code != 200 || resp.Epoch != uint64(i) {
			t.Fatalf("batch %d: code %d epoch %d error %q", i, code, resp.Epoch, resp.Error)
		}
	}
	for _, l := range statusOf(t, ts).Live {
		if l.Compactions != 0 || l.OverlayOps != 0 {
			t.Errorf("%s: %d compactions, %d overlay ops after plain batches; want 0, 0", l.Name, l.Compactions, l.OverlayOps)
		}
		if l.Name == "line" && (l.PlaneCopies != 2 || l.PlanesRecycled != 298) {
			t.Errorf("line: %d plane copies, %d recycled after 300 reweights; want 2, 298", l.PlaneCopies, l.PlanesRecycled)
		}
	}
}

// TestUpdateReadOnlyServer: without -mutable, batches are rejected with 403
// before touching the graph, and queries still work.
func TestUpdateReadOnlyServer(t *testing.T) {
	srv, ts := startServer(t, server.Config{
		Graphs: map[string]*graphit.Graph{"line": lineGraph(t)},
	})
	defer shutdown(t, srv)
	code, resp := postUpdate(t, ts, `{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":2}]}`)
	if code != 403 || !strings.Contains(resp.Error, "read-only") {
		t.Fatalf("read-only update: code %d error %q", code, resp.Error)
	}
	if code, q := postQuery(t, ts, server.Query{Algo: "sssp", Graph: "line", Src: 0, Vertices: []uint32{2}}); code != 200 || q.Values["2"] != 15 {
		t.Fatalf("read-only query: code %d values %v", code, q.Values)
	}
}

// TestUpdateDuringDrain: a draining server rejects batches with 503 and
// Retry-After, like /query.
func TestUpdateDuringDrain(t *testing.T) {
	srv, ts := startServer(t, server.Config{
		Graphs:  map[string]*graphit.Graph{"line": lineGraph(t)},
		Mutable: true,
	})
	shutdown(t, srv)
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("update during drain: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain without Retry-After")
	}
}

func shutdown(t testing.TB, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
