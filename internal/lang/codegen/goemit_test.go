package codegen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphit/internal/core"
	"graphit/internal/gen"
)

// emit compiles a DSL file with extra schedule text and returns Go source.
func emit(t *testing.T, file, schedText string) string {
	t.Helper()
	plan, err := Compile(readDSL(t, file))
	if err != nil {
		t.Fatal(err)
	}
	if schedText != "" {
		if err := plan.ApplySchedule(schedText); err != nil {
			t.Fatal(err)
		}
	}
	src, err := plan.EmitGo()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// tempModule creates a Go module in a temporary directory that requires
// graphit from this checkout. It returns the module directory, a function
// writing a file into it, and one running the go tool inside it.
func tempModule(t *testing.T) (string, func(name, src string), func(args ...string)) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gotool := func(args ...string) {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	write("go.mod", "module gentest\n\ngo 1.22\n\nrequire graphit v0.0.0\n\nreplace graphit => "+root+"\n")
	return mod, write, gotool
}

// emittable lists every testdata/dsl program EmitGo accepts, with the
// argv its binary and Execute both run with (after the graph path).
var emittable = []struct {
	file string
	args []string
}{
	{"sssp.gt", []string{"3"}},
	{"wbfs.gt", []string{"3"}},
	{"ppsp.gt", []string{"3", "250"}},
	{"astar.gt", []string{"3", "250"}},
	{"kcore.gt", nil},
	{"widestpath.gt", []string{"3", "1000"}},
}

// TestEmitGoIsValidGo builds every emittable program under a SparsePush and
// a DensePull schedule in one temporary module, vets it, runs each binary
// on a graph file, and requires its output to equal Execute's. astar's
// extern heuristic is bound to 0 in a generated init, on both sides.
func TestEmitGoIsValidGo(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain round-trip in -short mode")
	}
	mod, write, gotool := tempModule(t)
	directions := []string{"SparsePush", "DensePull"}
	for _, c := range emittable {
		for _, dir := range directions {
			src := emit(t, c.file, fmt.Sprintf(`program->configApplyPriorityUpdate("s1", "lazy")->configApplyDirection("s1", %q);`, dir))
			pkg := strings.TrimSuffix(c.file, ".gt") + "_" + dir
			write(filepath.Join(pkg, "main.go"), src)
			if c.file == "astar.gt" {
				write(filepath.Join(pkg, "heuristic.go"), "package main\n\nimport \"graphit\"\n\nfunc init() { heuristic = func(graphit.VertexID) int64 { return 0 } }\n")
			}
		}
	}
	bin := filepath.Join(mod, "bin")
	gotool("vet", "./...")
	gotool("build", "-o", bin+string(filepath.Separator), "./...")

	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 777))
	if err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(mod, "g.wel")
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d %d\n", e.Src, e.Dst, e.W)
	}
	write("g.wel", sb.String())
	for _, c := range emittable {
		t.Run(c.file, func(t *testing.T) {
			for _, dir := range directions {
				plan, err := Compile(readDSL(t, c.file))
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.ApplySchedule(fmt.Sprintf(`program->configApplyPriorityUpdate("s1", "lazy")->configApplyDirection("s1", %q);`, dir)); err != nil {
					t.Fatal(err)
				}
				res, err := plan.Execute(ExecOptions{
					Argv:    append([]string{c.file, graphPath}, c.args...),
					Externs: map[string]ExternFunc{"heuristic": func(...int64) int64 { return 0 }},
				})
				if err != nil {
					t.Fatal(err)
				}
				pkg := strings.TrimSuffix(c.file, ".gt") + "_" + dir
				out, err := exec.Command(filepath.Join(bin, pkg), append([]string{graphPath}, c.args...)...).CombinedOutput()
				if err != nil {
					t.Fatalf("%s: %v\n%s", pkg, err, out)
				}
				want := strings.Join(res.Printed, "\n")
				if got := strings.TrimSpace(string(out)); got != want {
					t.Fatalf("%s printed %q, Execute printed %q", pkg, got, want)
				}
			}
		})
	}
}

// TestEmitGoCompilesAndRuns is the deepest end-to-end check: DSL -> Go
// source -> `go build` -> run the binary on a graph file -> exact
// shortest-path distance, checked against Dijkstra rather than Execute.
func TestEmitGoCompilesAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain round-trip in -short mode")
	}
	src := emit(t, "ppsp.gt", `program->configApplyPriorityUpdateDelta("s1", "8");`)
	mod, write, gotool := tempModule(t)
	write(filepath.Join("ppsp", "main.go"), src)
	bin := filepath.Join(mod, "ppsp.bin")
	gotool("build", "-o", bin, "./ppsp")

	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 777))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d %d\n", e.Src, e.Dst, e.W)
	}
	write("g.wel", sb.String())
	out, err := exec.Command(bin, filepath.Join(mod, "g.wel"), "3", "250").CombinedOutput()
	if err != nil {
		t.Fatalf("generated binary failed: %v\n%s", err, out)
	}
	want := dijkstra(g, 3)[250]
	if want == core.Unreached {
		t.Fatal("ppsp target unreachable in the test graph")
	}
	if got := strings.TrimSpace(string(out)); got != fmt.Sprintf("%d", want) {
		t.Fatalf("generated binary printed %q, want %d", got, want)
	}
}

// TestEmitGoScheduleDifferences mirrors paper Figure 9: the same algorithm
// under different schedules generates observably different code.
func TestEmitGoScheduleDifferences(t *testing.T) {
	push := emit(t, "astar.gt", `program->configApplyPriorityUpdate("s1", "lazy")->configApplyDirection("s1", "SparsePush");`)
	pull := emit(t, "astar.gt", `program->configApplyPriorityUpdate("s1", "lazy")->configApplyDirection("s1", "DensePull");`)
	eager := emit(t, "astar.gt", `program->configApplyPriorityUpdate("s1", "eager_with_fusion");`)

	// SparsePush inserts atomics on the auxiliary dist vector (Fig 9(a)).
	if !strings.Contains(push, "graphit.WriteMin(&dist[dst]") {
		t.Errorf("push codegen lost the atomic write-min:\n%s", push)
	}
	if !strings.Contains(push, "graphit.AtomicLoad(&dist[") {
		t.Errorf("push codegen lost atomic loads:\n%s", push)
	}
	if !strings.Contains(push, "q.UpdatePriorityMin(dst, (new_dist + heuristic(dst)))") {
		t.Errorf("push codegen lost the priority update:\n%s", push)
	}
	// DensePull removes them for dst-indexed accesses only (Fig 9(b)): the
	// owner compares with a plain read and stores without a CAS loop ...
	if strings.Contains(pull, "graphit.WriteMin(&dist[dst]") || strings.Contains(pull, "AtomicLoad(&dist[dst])") {
		t.Errorf("pull codegen kept an unnecessary atomic on dist[dst]:\n%s", pull)
	}
	if !strings.Contains(pull, "if new_dist < dist[dst] { graphit.AtomicStore(&dist[dst], new_dist) }") {
		t.Errorf("pull codegen should compare plainly and store once:\n%s", pull)
	}
	// ... while dist[src], which other workers write, stays atomic.
	if !strings.Contains(pull, "graphit.AtomicLoad(&dist[src])") {
		t.Errorf("pull codegen made a non-dst read plain:\n%s", pull)
	}
	// The schedule chain itself differs (Fig 9(c)).
	if !strings.Contains(eager, `ConfigApplyPriorityUpdate("eager_with_fusion")`) {
		t.Errorf("eager codegen lost its strategy:\n%s", eager)
	}
	if !strings.Contains(push, `ConfigApplyDirection("SparsePush")`) ||
		!strings.Contains(pull, `ConfigApplyDirection("DensePull")`) {
		t.Error("direction not materialized in the generated schedule chain")
	}
}

// TestEmitGoCarriesGrain: a schedule that sets a grain runs it under
// Execute, so the emitted chain and its header comment must carry it. Its
// configDeduplication call sets nothing, so nothing of it is emitted.
func TestEmitGoCarriesGrain(t *testing.T) {
	src := emit(t, "sssp.gt", `program->configApplyPriorityUpdate("s1", "lazy")
->configDeduplication("s1", "disabled")
->configApplyParallelization("s1", "dynamic-vertex-parallel,64");`)
	if !strings.Contains(src, "ConfigApplyParallelization(64)") {
		t.Errorf("emitted chain lacks ConfigApplyParallelization(64):\n%s", src)
	}
	if strings.Contains(src, "Dedup") {
		t.Errorf("emitted program names deduplication:\n%s", src)
	}
	header, _, _ := strings.Cut(src, "package main")
	if !strings.Contains(header, "grain=64") {
		t.Errorf("header comment does not name grain=64:\n%s", header)
	}
}

// TestEmitGoConstantSum: the Figure 10 transformation's extracted constants
// appear in the generated operator.
func TestEmitGoConstantSum(t *testing.T) {
	src := emit(t, "kcore.gt", `program->configApplyPriorityUpdate("s1", "lazy_constant_sum");`)
	if !strings.Contains(src, "SumConst:          -1,") {
		t.Errorf("extracted constant missing:\n%s", src)
	}
	if !strings.Contains(src, "SumFloorIsCurrent: true,") {
		t.Errorf("threshold flag missing:\n%s", src)
	}
	if !strings.Contains(src, "FinalizeOnPop: true,") {
		t.Errorf("no-coarsening finalization missing:\n%s", src)
	}
}

// TestEmitGoGolden locks the full emitted SSSP program (eager with fusion,
// ∆=8) against a golden file, the repository's Figure 9 artifact.
func TestEmitGoGolden(t *testing.T) {
	src := emit(t, "sssp.gt",
		`program->configApplyPriorityUpdate("s1", "eager_with_fusion")->configApplyPriorityUpdateDelta("s1", "8");`)
	goldenPath := filepath.Join("testdata", "sssp_eager_fusion.go.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if src != string(want) {
		t.Errorf("generated code drifted from golden file %s:\n--- got ---\n%s", goldenPath, src)
	}
}

// TestEmitGoGoldenKCore locks the generated k-core program under the
// histogram schedule — the repository's Figure 10 codegen artifact.
func TestEmitGoGoldenKCore(t *testing.T) {
	src := emit(t, "kcore.gt", `program->configApplyPriorityUpdate("s1", "lazy_constant_sum");`)
	goldenPath := filepath.Join("testdata", "kcore_constant_sum.go.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if src != string(want) {
		t.Errorf("generated code drifted from %s:\n--- got ---\n%s", goldenPath, src)
	}
}
