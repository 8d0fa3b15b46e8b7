package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphit/internal/lang"
)

func analyzeFile(t *testing.T, name string) *Result {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "dsl", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(b))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := Analyze(chk)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func analyzeSrc(t *testing.T, src string) (*Result, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return Analyze(chk)
}

func TestAnalyzeSSSP(t *testing.T) {
	res := analyzeFile(t, "sssp.gt")
	if res.Loop == nil {
		t.Fatal("no ordered loop found")
	}
	if res.Loop.Label != "s1" {
		t.Errorf("label = %q, want s1", res.Loop.Label)
	}
	if res.Loop.UDFName != "updateEdge" {
		t.Errorf("udf = %q", res.Loop.UDFName)
	}
	if res.Loop.StopVertex != nil {
		t.Error("SSSP should have no early-termination vertex")
	}
	info := res.UDFs["updateEdge"]
	if info == nil {
		t.Fatal("no UDF analysis")
	}
	if !info.NeedsAtomics {
		t.Error("SSSP UDF must need atomics in push direction")
	}
	if len(info.Updates) != 1 || info.Updates[0].Kind != UpdateMin {
		t.Errorf("updates = %+v, want one min update", info.Updates)
	}
	if info.ConstantSum != nil {
		t.Error("SSSP must not be constant-sum eligible")
	}
	if len(res.Pre) != 3 {
		t.Errorf("pre-loop statements = %d, want 3", len(res.Pre))
	}
}

func TestAnalyzeKCoreConstantSum(t *testing.T) {
	res := analyzeFile(t, "kcore.gt")
	info := res.UDFs["apply_f"]
	if info == nil {
		t.Fatal("no UDF analysis")
	}
	if info.ConstantSum == nil {
		t.Fatal("k-core UDF must be constant-sum eligible (paper Figure 10)")
	}
	if info.ConstantSum.Const != -1 {
		t.Errorf("extracted constant = %d, want -1", info.ConstantSum.Const)
	}
	if !info.ConstantSum.ThresholdIsCurrentPriority {
		t.Error("threshold must trace to getCurrentPriority through the local k")
	}
}

func TestAnalyzePPSPStopVertex(t *testing.T) {
	res := analyzeFile(t, "ppsp.gt")
	if res.Loop == nil || res.Loop.StopVertex == nil {
		t.Fatal("PPSP loop must extract a finishedVertex early-termination target")
	}
	id, ok := res.Loop.StopVertex.(*lang.IdentExpr)
	if !ok || id.Name != "end_vertex" {
		t.Errorf("stop vertex = %v, want end_vertex", res.Loop.StopVertex)
	}
	if len(res.Post) != 1 {
		t.Errorf("post-loop statements = %d, want 1 (print)", len(res.Post))
	}
}

func TestAnalyzeAStarWrites(t *testing.T) {
	res := analyzeFile(t, "astar.gt")
	info := res.UDFs["updateEdge"]
	if info == nil {
		t.Fatal("no UDF analysis")
	}
	var distWrite *VectorWrite
	for i := range info.Writes {
		if info.Writes[i].Vector == "dist" {
			distWrite = &info.Writes[i]
		}
	}
	if distWrite == nil {
		t.Fatal("A* UDF write to dist not detected")
	}
	if !distWrite.OnDst || !distWrite.Reduction {
		t.Errorf("dist write should be a dst-indexed reduction, got %+v", distWrite)
	}
	if !info.NeedsAtomics {
		t.Error("A* UDF must need atomics")
	}
	if info.ConstantSum != nil {
		t.Error("A* must not be constant-sum eligible")
	}
}

func TestAnalyzeSetCoverExternDriven(t *testing.T) {
	res := analyzeFile(t, "setcover.gt")
	if res.Loop == nil {
		t.Fatal("no loop found")
	}
	if !res.Loop.ExternDriven {
		t.Error("set cover loop must be classified extern-driven")
	}
}

func TestAnalyzeRejectsBucketEscape(t *testing.T) {
	src := `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = INT_MAX;
const pq : priority_queue{Vertex}(int);
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        var n : int = bucket.getVertexSetSize();
        edges.from(bucket).applyUpdatePriority(updateEdge);
    end
end`
	if _, err := analyzeSrc(t, src); err == nil {
		t.Fatal("expected analysis to reject a loop where the bucket escapes")
	} else if !strings.Contains(err.Error(), "bucket") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAnalyzeConstantSumRequiresLiteral(t *testing.T) {
	src := `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex) = load(argv[1]);
const D : vector{Vertex}(int) = 0;
const pq : priority_queue{Vertex}(int);
func apply_f(src : Vertex, dst : Vertex)
    var k : int = pq.getCurrentPriority();
    pq.updatePrioritySum(dst, D[src], k);
end
func main()
    D = edges.getOutDegrees();
    pq = new priority_queue{Vertex}(int)(false, "lower_first", D);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(apply_f);
        delete bucket;
    end
end`
	res, err := analyzeSrc(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFs["apply_f"].ConstantSum != nil {
		t.Error("non-literal delta must not qualify for constant-sum")
	}
}

func TestAnalyzeNotLoopForm(t *testing.T) {
	src := `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = INT_MAX;
const pq : priority_queue{Vertex}(int);
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
end
func main()
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (!pq.finished())
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        #s1# edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
end`
	res, err := analyzeSrc(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop == nil {
		t.Fatal("`!pq.finished()` loop form must be recognized")
	}
}

func TestAnalyzeMonotonicityViolations(t *testing.T) {
	header := `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = INT_MAX;
const pq : priority_queue{Vertex}(int);
`
	mainLoop := `
func main()
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
end`
	cases := map[string]string{
		"mixed min and max": header + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMin(dst, dist[src] + weight);
    pq.updatePriorityMax(dst, dist[src]);
end` + mainLoop,
		"max on lower_first": header + `
func updateEdge(src : Vertex, dst : Vertex, weight : int)
    pq.updatePriorityMax(dst, dist[src] + weight);
end` + mainLoop,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := analyzeSrc(t, src); err == nil {
				t.Error("expected a monotonicity error (paper §2)")
			} else if !strings.Contains(err.Error(), "priorit") {
				t.Errorf("unexpected error text: %v", err)
			}
		})
	}
}

// TestAnalyzeConstantSumAfterFolding: the Figure 10 detection must see
// through literal arithmetic once the folding pass has run.
func TestAnalyzeConstantSumAfterFolding(t *testing.T) {
	src := `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex) = load(argv[1]);
const D : vector{Vertex}(int) = 0;
const pq : priority_queue{Vertex}(int);
func apply_f(src : Vertex, dst : Vertex)
    var k : int = pq.getCurrentPriority();
    pq.updatePrioritySum(dst, 0 - 1, k);
end
func main()
    D = edges.getOutDegrees();
    pq = new priority_queue{Vertex}(int)(false, "lower_first", D);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(apply_f);
        delete bucket;
    end
end`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lang.Fold(prog)
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(chk)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.UDFs["apply_f"].ConstantSum
	if cs == nil || cs.Const != -1 {
		t.Fatalf("folded `0 - 1` not detected as constant -1: %+v", cs)
	}
}

// TestMinPlusRecognition: exactly Figure 3's relaxation over the queue's own
// priority vector is recognised; a heuristic, another vector, a constant in
// place of the weight, or an extra statement keeps the UDF compiled.
func TestMinPlusRecognition(t *testing.T) {
	for file, want := range map[string]bool{
		"sssp.gt": true, "ppsp.gt": true, "wbfs.gt": true,
		"astar.gt": false, "kcore.gt": false, "widestpath.gt": false,
	} {
		res := analyzeFile(t, file)
		if got := res.UDFs[res.Loop.UDFName].MinPlus; got != want {
			t.Errorf("%s: MinPlus = %v, want %v", file, got, want)
		}
	}
	const header = `element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);
const dist : vector{Vertex}(int) = INT_MAX;
const other : vector{Vertex}(int) = 0;
const pq : priority_queue{Vertex}(int);
func updateEdge(src : Vertex, dst : Vertex, weight : int)
`
	const footer = `
end
func main()
    pq = new priority_queue{Vertex}(int)(true, "lower_first", dist, 0);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        #s1# edges.from(bucket).applyUpdatePriority(updateEdge);
        delete bucket;
    end
end`
	for body, want := range map[string]bool{
		`pq.updatePriorityMin(dst, dist[src] + weight);`:                                     true,
		`pq.updatePriorityMin(dst, weight + dist[src]);`:                                     true,
		`var nd : int = weight + dist[src]; pq.updatePriorityMin(dst, dist[dst], nd);`:       true,
		`pq.updatePriorityMin(dst, other[src] + weight);`:                                    false,
		`pq.updatePriorityMin(dst, dist[src] + 1);`:                                          false,
		`pq.updatePriorityMin(dst, dist[dst] + weight);`:                                     false,
		`pq.updatePriorityMin(dst, other[dst], dist[src] + weight);`:                         false,
		`var nd : int = dist[src] + weight; pq.updatePriorityMin(dst, nd + 1);`:              false,
		`var nd : int = dist[src] + weight; other[dst] = 1; pq.updatePriorityMin(dst, nd);`:  false,
		`var nd : int = dist[src] + weight; var x : int = nd; pq.updatePriorityMin(dst, x);`: false,
	} {
		res, err := analyzeSrc(t, header+body+footer)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := res.UDFs["updateEdge"].MinPlus; got != want {
			t.Errorf("%s: MinPlus = %v, want %v", body, got, want)
		}
	}
}
