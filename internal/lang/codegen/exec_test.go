package codegen

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"graphit/internal/core"
	"graphit/internal/graph"
)

// tiny returns a 4-vertex weighted path graph 0-1-2-3.
func tiny(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}, {Src: 2, Dst: 3, W: 4},
	}, graph.BuildOptions{Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const interpHeader = `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = INT_MAX;
const pq : priority_queue{Vertex}(int);
`

func runTiny(t *testing.T, src string, argv ...string) (*ExecResult, error) {
	t.Helper()
	plan, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan.Execute(ExecOptions{Graph: tiny(t), Argv: append([]string{"p", "-"}, argv...)})
}

func TestInterpUserFunctionCallsAndControlFlow(t *testing.T) {
	src := interpHeader + `
func double(x : int) : int
    var y : int = 0;
    while (y < x)
        y = y + 1;
    end
    return y + x - x + x;
end
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    var w2 : int = double(weight) / 2;
    if w2 > 0
        pq.updatePriorityMin(dst, dist[src] + w2);
    else
        pq.updatePriorityMin(dst, dist[src]);
    end
end
func main()
    dist[0] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        #s1# edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
    print dist[3];
end`
	res, err := runTiny(t, src)
	if err != nil {
		t.Fatal(err)
	}
	// double(w)/2 == w, so distances are the plain path sums: 2+3+4 = 9.
	if len(res.Printed) != 1 || res.Printed[0] != "9" {
		t.Fatalf("printed %v, want [9]", res.Printed)
	}
}

func TestInterpMainIfElseAndLocals(t *testing.T) {
	src := interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    var start : int = atoi(argv[2]);
    if start > 10
        start = 0;
    end
    dist[start] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, start);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        #s1# edges.from(bucket).applyUpdatePriority(updateEdge);
    end
    var best : int = dist[1];
    best min= dist[2];
    print best;
end`
	res, err := runTiny(t, src, "99") // 99 > 10 -> start reset to 0
	if err != nil {
		t.Fatal(err)
	}
	if res.Printed[0] != "2" { // min(dist[1]=2, dist[2]=5)
		t.Fatalf("printed %v, want [2]", res.Printed)
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	cases := map[string]struct {
		src  string
		argv []string
		want string
	}{
		"argv out of range": {
			src: interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    var s : int = atoi(argv[9]);
    dist[s] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, s);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
    end
end`,
			want: "argv[9]",
		},
		"bad atoi": {
			src: interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    var s : int = atoi(argv[2]);
    dist[s] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, s);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
    end
end`,
			argv: []string{"not-a-number"},
			want: "atoi",
		},
		"vector index out of range": {
			src: interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    dist[4000] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
    end
end`,
			want: "out of range",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := runTiny(t, tc.src, tc.argv...)
			if err == nil {
				t.Fatal("expected a runtime error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestInterpDivisionByZero(t *testing.T) {
	src := interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight / (weight - weight));
end
func main()
    dist[0] = 0;
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
    end
end`
	_, err := runTiny(t, src)
	if err == nil {
		t.Fatal("expected a UDF runtime error for division by zero")
	}
	if !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error %v does not mention division by zero", err)
	}
}

// TestUDFErrorHaltsRun: a UDF's runtime error stops the run the way any
// worker's panic does. Over a 2¹⁶-vertex frontier in one bucket, lazy at
// two workers, the edge function is entered far fewer than n/4 times, the
// engine reports the fault as a *core.PanicError carrying the execError,
// and Execute turns it back into the program's error.
func TestUDFErrorHaltsRun(t *testing.T) {
	const n = 1 << 16
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i), Dst: uint32(i + 1), W: 1}
	}
	g, err := graph.Build(edges, graph.BuildOptions{Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(`element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = 0;
const pq : priority_queue{Vertex}(int);
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight / (weight - weight));
end
func main()
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        #s1# edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
end
schedule:
    program->configApplyPriorityUpdate("s1", "lazy");
`)
	if err != nil {
		t.Fatal(err)
	}
	plan.Schedules["s1"].Workers = 2

	// The loop's operator as Execute builds it, with its edge function
	// wrapped to count entries.
	ir, err := plan.lower()
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(ir, g, ExecOptions{Graph: g})
	main := newFrame(nil, len(ir.main.slots))
	m.block(ir.pre)(main)
	op := m.ordered(ir.loop, main)
	udf := op.Apply
	var calls atomic.Int64
	op.Apply = func(src, dst graph.VertexID, w graph.Weight, q *core.Updater) {
		calls.Add(1)
		udf(src, dst, w, q)
	}
	_, err = op.Run()
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("engine returned %v, want the UDF's *core.PanicError", err)
	}
	if _, ok := pe.Value.(execError); !ok {
		t.Fatalf("PanicError.Value = %#v, want an execError", pe.Value)
	}
	if c := calls.Load(); c >= n/4 {
		t.Errorf("edge function entered %d times over a %d-vertex frontier after its first error", c, n)
	}

	_, err = plan.Execute(ExecOptions{Graph: g})
	if err == nil || !strings.Contains(err.Error(), "graphit UDF updateEdge") || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Execute error = %v, want the UDF's division by zero", err)
	}
	if errors.As(err, &pe) {
		t.Fatalf("Execute returned an engine fault: %v", err)
	}
}

// TestMinPlusShapeOnHigherFirstIsADSLError: the engine's native MinPlus is
// lower_first only. Figure 3's UDF over a higher_first queue is refused by
// analysis with a DSL-level message, before lowering or any engine sees it.
func TestMinPlusShapeOnHigherFirstIsADSLError(t *testing.T) {
	src := interpHeader + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    dist[0] = 0;
    pq = new priority_queue{Vertex}(int)(true, "higher_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
    print dist[3];
end`
	_, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "lowers priorities on a higher_first queue") {
		t.Fatalf("err = %v, want analysis's higher_first error", err)
	}
}

// TestPlanWidestPathMaxQueue exercises the higher_first /
// updatePriorityMax path of the plan backend end-to-end.
func TestPlanWidestPathMaxQueue(t *testing.T) {
	plan, err := Compile(readDSL(t, "widestpath.gt"))
	if err != nil {
		t.Fatal(err)
	}
	g := planGraph(t)
	maxW := int64(0)
	for _, w := range g.Wts {
		if int64(w) > maxW {
			maxW = int64(w)
		}
	}
	res, err := plan.Execute(ExecOptions{
		Graph: g,
		Argv:  []string{"widest", "-", "1", "999"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Vectors["cap"]
	want := refWidest(g, 1, 999)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("cap[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// refWidest is sequential max-bottleneck Dijkstra with an explicit source
// capacity (matching the DSL program's argv[3]).
func refWidest(g *graph.Graph, src uint32, srcCap int64) []int64 {
	n := g.NumVertices()
	cap := make([]int64, n)
	for i := range cap {
		cap[i] = core.NullMax
	}
	cap[src] = srcCap
	done := make([]bool, n)
	for {
		best, bv := core.NullMax, -1
		for v := 0; v < n; v++ {
			if !done[v] && cap[v] != core.NullMax && cap[v] > best {
				best, bv = cap[v], v
			}
		}
		if bv < 0 {
			break
		}
		done[bv] = true
		wts := g.OutWts(uint32(bv))
		for i, d := range g.OutNeigh(uint32(bv)) {
			nc := best
			if int64(wts[i]) < nc {
				nc = int64(wts[i])
			}
			if nc > cap[d] {
				cap[d] = nc
			}
		}
	}
	return cap
}

// TestWholeVectorCompoundAssign: `v += e` and `v min= e` on a whole vector
// combine with every element instead of overwriting it.
func TestWholeVectorCompoundAssign(t *testing.T) {
	src := interpHeader + `
const cnt : vector{Vertex}(int) = 0;
func main()
    cnt = 5;
    cnt += 2;
    print cnt[0];
    cnt[1] = 1;
    cnt min= 3;
    print cnt[1];
    print cnt[3];
end`
	res, err := runTiny(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Printed, " "); got != "7 1 3" {
		t.Fatalf("printed %q, want \"7 1 3\"", got)
	}
}

// TestDSLApplySteadyStateAllocs gates the executor's per-edge path: once a
// worker has its frame, applying a compiled UDF allocates nothing. It runs
// astar.gt, whose heuristic keeps its UDF off the native min-plus operator
// (sssp.gt's is recognised and never compiled). The replayed edges are the
// ones whose relaxation loses after the run, so the edge function exercises
// its frame, loads, arithmetic and compare without touching a bucket.
func TestDSLApplySteadyStateAllocs(t *testing.T) {
	plan, err := Compile(readDSL(t, "astar.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ApplySchedule(`program->configApplyPriorityUpdate("s1", "lazy");`); err != nil {
		t.Fatal(err)
	}
	ir, err := plan.lower()
	if err != nil {
		t.Fatal(err)
	}
	if ir.loop.apply == nil {
		t.Fatal("astar.gt's UDF was not compiled")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := planGraph(t)
	heuristic := func(...int64) int64 { return 0 }
	m := newMachine(ir, g, ExecOptions{Argv: []string{"astar", "-", "1", "2"},
		Externs: map[string]ExternFunc{"heuristic": heuristic}})
	main := newFrame(nil, len(ir.main.slots))
	m.block(ir.pre)(main)
	op := m.ordered(ir.loop, main)
	apply := op.Apply
	var q *core.Updater
	op.Apply = func(s, d graph.VertexID, w graph.Weight, u *core.Updater) {
		q = u
		apply(s, d, w, u)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	// Only losing relaxations from reached sources: a winning one would move
	// a vertex into the pooled engine scratch and leave it dirty for later
	// runs (and INT_MAX + w would overflow into a win).
	dist := m.vecs[slices.Index(ir.vectors, "dist")]
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if dist[e.Src] != core.Unreached && dist[e.Src]+int64(e.W) >= dist[e.Dst] {
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		t.Fatal("no edges to replay")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, e := range edges {
			apply(e.Src, e.Dst, e.W, q)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per sweep of %d edge applications, want 0", allocs, len(edges))
	}
}
