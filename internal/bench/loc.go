package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Table5 reproduces Table 5: lines of code per algorithm in the GraphIt
// DSL versus the same algorithm written directly against the runtime
// library (the analogue of writing GAPBS/Julienne-style framework code).
// Counts exclude blank lines and comments, as is conventional.
func Table5() (*Table, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 5: lines of code, GraphIt DSL vs direct library implementation",
		Header: []string{"algorithm", "GraphIt (.gt)", "library (Go)", "reduction"},
	}
	// Map each algorithm to its DSL file and the Go function(s) a user
	// would otherwise write (the library implementations in package algo:
	// the Context entry point, and for the shortest-path family the body
	// it shares with its approximate-ordering variant; the plain names are
	// one-line delegations).
	rows := []struct {
		name    string
		dslFile string
		goFile  string
		goFuncs []string
	}{
		{"SSSP", "sssp.gt", "algo/sssp.go", []string{"SSSPContext", "sssp"}},
		{"PPSP", "ppsp.gt", "algo/sssp.go", []string{"PPSPContext", "ppsp"}},
		{"wBFS", "wbfs.gt", "algo/sssp.go", []string{"SSSPContext", "sssp", "WBFSContext"}},
		{"A*", "astar.gt", "algo/astar.go", []string{"AStarContext", "astar"}},
		{"k-core", "kcore.gt", "algo/kcore.go", []string{"KCoreContext"}},
		{"SetCover", "setcover.gt", "algo/setcover.go", []string{"SetCoverContext"}},
	}
	for _, r := range rows {
		dsl, err := countDSLLines(filepath.Join(root, "testdata", "dsl", r.dslFile))
		if err != nil {
			return nil, err
		}
		goLines := 0
		for _, fn := range r.goFuncs {
			n, err := countGoFuncLines(filepath.Join(root, r.goFile), fn)
			if err != nil {
				return nil, err
			}
			goLines += n
		}
		t.AddRow(r.name, fmt.Sprintf("%d", dsl), fmt.Sprintf("%d", goLines),
			fmtRatio(float64(goLines)/float64(dsl)))
	}
	t.Note("paper Table 5: GraphIt 24-74 lines, frameworks 35-139 (up to 4x reduction)")
	return t, nil
}

// repoRoot locates the module root from this source file's position.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source file")
	}
	// file = <root>/internal/bench/loc.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countDSLLines counts non-blank, non-comment lines of a .gt file.
func countDSLLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}

// countGoFuncLines counts the non-blank, non-comment lines of one
// top-level function (from its `func Name` line to the closing brace at
// column zero).
func countGoFuncLines(path, funcName string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	n := 0
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if !in {
			if strings.HasPrefix(line, "func "+funcName+"(") {
				in = true
				n++
			}
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		n++
		if line == "}" {
			return n, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !in {
		return 0, fmt.Errorf("bench: function %s not found in %s", funcName, path)
	}
	return 0, fmt.Errorf("bench: function %s in %s never closed", funcName, path)
}
