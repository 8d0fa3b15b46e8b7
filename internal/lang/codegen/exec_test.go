package codegen

import (
	"strings"
	"testing"

	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/parallel"
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
// worker has its frame, applying sssp.gt's compiled UDF allocates nothing.
// After the run every distance is final, so each relaxation loses and the
// edge function exercises its loads, arithmetic and update without touching
// a bucket.
func TestDSLApplySteadyStateAllocs(t *testing.T) {
	plan, err := Compile(readDSL(t, "sssp.gt"))
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
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	g := planGraph(t)
	m := newMachine(ir, g, ExecOptions{Argv: []string{"sssp", "-", "1"}})
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
	// Only reached sources: INT_MAX + w would overflow into a winning
	// update and leave the pooled engine scratch dirty for later runs.
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if m.vecs[ir.loop.prio][e.Src] != core.Unreached {
			edges = append(edges, e)
		}
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
