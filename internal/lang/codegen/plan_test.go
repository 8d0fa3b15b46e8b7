package codegen

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graphit/internal/core"
	"graphit/internal/gen"
	"graphit/internal/graph"
)

func readDSL(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "dsl", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func planGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 12345))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func planSymGraph(t *testing.T) *graph.Graph {
	t.Helper()
	opt := gen.DefaultRMAT(9, 8, 12345)
	opt.Symmetrize = true
	g, err := gen.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dijkstra is a local reference (the algo package depends on this one's
// module root, so tests here keep their own copy).
func dijkstra(g *graph.Graph, src uint32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = core.Unreached
	}
	dist[src] = 0
	inQ := map[uint32]bool{src: true}
	// Simple O(V^2+E) scan-based Dijkstra: fine at test scale.
	done := make([]bool, n)
	for {
		best, bv := core.Unreached, -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best, bv = dist[v], v
			}
		}
		if bv < 0 {
			break
		}
		done[bv] = true
		wts := g.OutWts(uint32(bv))
		for i, d := range g.OutNeigh(uint32(bv)) {
			nd := best + int64(wts[i])
			if nd < dist[d] {
				dist[d] = nd
			}
		}
	}
	_ = inQ
	return dist
}

func TestPlanSSSPAllSchedules(t *testing.T) {
	g := planGraph(t)
	want := dijkstra(g, 1)
	src := readDSL(t, "sssp.gt")
	schedules := map[string]string{
		"eager_fusion": `program->configApplyPriorityUpdate("s1", "eager_with_fusion")->configApplyPriorityUpdateDelta("s1", "8");`,
		"eager_nofuse": `program->configApplyPriorityUpdate("s1", "eager_no_fusion")->configApplyPriorityUpdateDelta("s1", "8");`,
		"lazy_push":    `program->configApplyPriorityUpdate("s1", "lazy")->configApplyPriorityUpdateDelta("s1", "8")->configApplyDirection("s1", "SparsePush");`,
		"lazy_pull":    `program->configApplyPriorityUpdate("s1", "lazy")->configApplyPriorityUpdateDelta("s1", "8")->configApplyDirection("s1", "DensePull");`,
		"defaults":     ``,
	}
	for name, schedText := range schedules {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if schedText != "" {
				if err := plan.ApplySchedule(schedText); err != nil {
					t.Fatalf("schedule: %v", err)
				}
			}
			res, err := plan.Execute(ExecOptions{
				Graph: g,
				Argv:  []string{"sssp", "ignored.wel", "1"},
			})
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			dist := res.Vectors["dist"]
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
				}
			}
			if res.Stats.Rounds == 0 {
				t.Error("no rounds recorded")
			}
		})
	}
}

func TestPlanWBFSUsesItsEmbeddedSchedule(t *testing.T) {
	g := planGraph(t)
	want := dijkstra(g, 2)
	plan, err := Compile(readDSL(t, "wbfs.gt"))
	if err != nil {
		t.Fatal(err)
	}
	// wbfs.gt's schedule block pins delta=1 with eager fusion.
	if got := plan.Schedules.Get("s1"); got.Delta != 1 || got.Strategy != core.EagerWithFusion {
		t.Fatalf("embedded schedule not applied: %+v", got)
	}
	res, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"wbfs", "-", "2"}})
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Vectors["dist"]
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestPlanPPSPStopsEarlyAndPrints(t *testing.T) {
	g := planGraph(t)
	want := dijkstra(g, 1)
	target := uint32(200)
	plan, err := Compile(readDSL(t, "ppsp.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ApplySchedule(`program->configApplyPriorityUpdateDelta("s1", "8");`); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"ppsp", "-", "1", "200"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Vectors["dist"][target]; got != want[target] {
		t.Fatalf("ppsp dist = %d, want %d", got, want[target])
	}
	if len(res.Printed) != 1 || res.Printed[0] != fmt.Sprintf("%d", want[target]) {
		t.Errorf("printed %v, want [%d]", res.Printed, want[target])
	}
}

func TestPlanKCoreAllLazySchedules(t *testing.T) {
	g := planSymGraph(t)
	// Reference coreness via the plan itself under plain lazy, checked
	// against an independent sequential peeling.
	want := refCoreness(g)
	for _, strat := range []string{"lazy", "lazy_constant_sum", "eager_no_fusion", "eager_with_fusion"} {
		t.Run(strat, func(t *testing.T) {
			plan, err := Compile(readDSL(t, "kcore.gt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.ApplySchedule(fmt.Sprintf(`program->configApplyPriorityUpdate("s1", %q);`, strat)); err != nil {
				t.Fatal(err)
			}
			res, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"kcore", "-"}})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Vectors["D"]
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("coreness[%d] = %d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

// refCoreness: sequential bucket-queue peeling.
func refCoreness(g *graph.Graph) []int64 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(uint32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	for k := 0; k <= maxDeg; k++ {
		for i := 0; i < len(buckets[k]); i++ {
			v := buckets[k][i]
			if removed[v] || deg[v] != k {
				continue
			}
			removed[v] = true
			core[v] = int64(k)
			for _, u := range g.OutNeigh(v) {
				if !removed[u] && deg[u] > k {
					deg[u]--
					b := deg[u]
					if b < k {
						b = k
					}
					buckets[b] = append(buckets[b], u)
				}
			}
		}
	}
	return core
}

func TestPlanKCoreRejectsCoarsening(t *testing.T) {
	g := planSymGraph(t)
	plan, err := Compile(readDSL(t, "kcore.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ApplySchedule(`program->configApplyPriorityUpdateDelta("s1", "4");`); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"kcore", "-"}}); err == nil {
		t.Fatal("expected coarsening rejection (the queue was built with allow_coarsening=false)")
	}
}

func TestPlanAStarWithExternHeuristic(t *testing.T) {
	g, err := gen.Road(gen.RoadOptions{Rows: 30, Cols: 30, DeleteFrac: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := uint32(0), uint32(29*30+29)
	want := dijkstra(g, src)
	target := g.Coord[dst]
	heuristic := func(args ...int64) int64 {
		v := args[0]
		dx := float64(g.Coord[v].X - target.X)
		dy := float64(g.Coord[v].Y - target.Y)
		return int64(math.Sqrt(dx*dx + dy*dy))
	}
	plan, err := Compile(readDSL(t, "astar.gt"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(ExecOptions{
		Graph:   g,
		Argv:    []string{"astar", "-", "0", "899"},
		Externs: map[string]ExternFunc{"heuristic": heuristic},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Vectors["dist"][dst]; got != want[dst] {
		t.Fatalf("A* dist = %d, want %d", got, want[dst])
	}
}

// TestPlanRejectsUnweightedGraph: a program over a weighted edgeset given a
// graph without weights fails in codegen, before any engine runs.
func TestPlanRejectsUnweightedGraph(t *testing.T) {
	plan, err := Compile(readDSL(t, "sssp.gt"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, graph.BuildOptions{InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute(ExecOptions{Graph: g, Argv: []string{"sssp", "-", "0"}})
	if err == nil || !strings.HasPrefix(err.Error(), "codegen:") {
		t.Fatalf("err = %v, want a codegen error", err)
	}
}

func TestPlanAStarMissingExtern(t *testing.T) {
	plan, err := Compile(readDSL(t, "astar.gt"))
	if err != nil {
		t.Fatal(err)
	}
	g := planGraph(t)
	if _, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"astar", "-", "0", "5"}}); err == nil {
		t.Fatal("expected unbound-extern error")
	}
}

// TestPlanSetCoverExternDriven drives the extern-driven loop with host
// closures implementing the reserve/commit/release phases, then validates
// the cover.
func TestPlanSetCoverExternDriven(t *testing.T) {
	g := planSymGraph(t)
	n := g.NumVertices()
	const uncovered = int64(-1)
	const unreserved = int64(math.MaxInt64)
	coveredBy := make([]int64, n)
	reserve := make([]int64, n)
	chosen := make([]bool, n)
	var mu sync.Mutex
	for i := range coveredBy {
		coveredBy[i] = uncovered
		reserve[i] = unreserved
	}
	plan, err := Compile(readDSL(t, "setcover.gt"))
	if err != nil {
		t.Fatal(err)
	}
	prioOf := func(s uint32) int64 {
		mu.Lock()
		defer mu.Unlock()
		var c int64
		if coveredBy[s] == uncovered {
			c++
		}
		for _, e := range g.OutNeigh(s) {
			if coveredBy[e] == uncovered {
				c++
			}
		}
		return c
	}
	elements := func(s uint32, f func(e uint32)) {
		f(s)
		for _, e := range g.OutNeigh(s) {
			f(e)
		}
	}
	// Mirror of the plan's priority vector: initialized like
	// `cover_count = edges.getOutDegrees()` and updated with every value
	// the reduce extern returns.
	myPrio := make([]int64, n)
	for v := 0; v < n; v++ {
		myPrio[v] = int64(g.OutDegree(uint32(v)))
	}
	externs := map[string]ExternFunc{
		"reserve_elements": func(args ...int64) int64 {
			s := uint32(args[0])
			elements(s, func(e uint32) {
				mu.Lock()
				if coveredBy[e] == uncovered && int64(s) < reserve[e] {
					reserve[e] = int64(s)
				}
				mu.Unlock()
			})
			return 0
		},
		"commit_or_release": func(args ...int64) int64 {
			s := uint32(args[0])
			var won int64
			elements(s, func(e uint32) {
				mu.Lock()
				if coveredBy[e] == uncovered && reserve[e] == int64(s) {
					won++
				}
				mu.Unlock()
			})
			need := (myPrio[s] + 1) / 2
			if won >= need {
				mu.Lock()
				chosen[s] = true
				elements(s, func(e uint32) {
					if reserve[e] == int64(s) {
						coveredBy[e] = int64(s)
					}
				})
				mu.Unlock()
				myPrio[s] = core.NullMax
				return core.NullMax // done: leave the queue
			}
			np := core.NullMax
			if c := prioOf(s); c > 0 {
				np = c
			}
			myPrio[s] = np
			return np
		},
		"release_reservations": func(args ...int64) int64 {
			s := uint32(args[0])
			elements(s, func(e uint32) {
				mu.Lock()
				reserve[e] = unreserved
				mu.Unlock()
			})
			return 0
		},
	}
	res, err := plan.Execute(ExecOptions{
		Graph:   g,
		Argv:    []string{"setcover", "-"},
		Externs: externs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds == 0 {
		t.Error("extern loop recorded no rounds")
	}
	for e := 0; e < n; e++ {
		if coveredBy[e] == uncovered {
			t.Fatalf("element %d left uncovered", e)
		}
		if !chosen[coveredBy[e]] {
			t.Fatalf("element %d covered by unchosen set", e)
		}
	}
}
