package bench

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"graphit/internal/graph"
)

// must fails the test on a dataset/experiment error and returns v.
func must[V any](t *testing.T) func(V, error) V {
	return func(v V, err error) V {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// These tests run every experiment at small scale and assert the *shape*
// of the paper's results (who wins, directionally) rather than absolute
// numbers — the fidelity contract of DESIGN.md §3.

func TestFig1OrderedBeatsUnordered(t *testing.T) {
	tbl, rows, err := Fig1(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "SSSP") || !strings.Contains(out, "k-core") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// The machine-independent signal: the unordered algorithm must do
	// strictly more work (paper Figure 1's speedups come from exactly this
	// redundancy; wall-clock follows on multi-core hosts at full scale).
	for _, r := range rows {
		if wr := r.WorkRatio(); wr <= 1.0 {
			t.Errorf("%s/%s: unordered should do more work, ratio=%.2f (ordered=%d unordered=%d)",
				r.Dataset, r.Algorithm, wr, r.Ordered.Stats.Relaxations, r.Unordered.Stats.Relaxations)
		}
	}
	// k-core's ordered win shows in wall clock even at small scale. Each
	// side is timed as the minimum of kcoreTimingRuns alternating runs, so
	// one run slowed by a loaded machine does not decide the comparison.
	ds, err := All(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		ord, unord := minKCoreTimes(t, d)
		t.Logf("%s: k-core unordered/ordered time %.2f (%v / %v, min of %d alternating runs)",
			d.Name, unord.Seconds()/ord.Seconds(), unord, ord, kcoreTimingRuns)
		if unord < ord {
			t.Errorf("%s: ordered k-core should already win in time at small scale", d.Name)
		}
	}
	t.Logf("\n%s", out)
}

const kcoreTimingRuns = 5

// minKCoreTimes times ordered and unordered k-core on d, alternating, and
// returns each side's fastest run.
func minKCoreTimes(t *testing.T, d *Dataset) (ord, unord time.Duration) {
	t.Helper()
	ord, unord = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < kcoreTimingRuns; i++ {
		o := KCore(context.Background(), FwGraphIt, d)
		u := KCore(context.Background(), FwUnordered, d)
		if o.Err != nil || u.Err != nil {
			t.Fatalf("%s: k-core: ordered %v, unordered %v", d.Name, o.Err, u.Err)
		}
		ord, unord = min(ord, o.Time), min(unord, u.Time)
	}
	return ord, unord
}

func TestTable6FusionReducesRounds(t *testing.T) {
	_, rows, err := Table6(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WithRounds >= r.WithoutRounds {
			t.Errorf("%s: fusion did not reduce rounds: with=%d without=%d",
				r.Dataset, r.WithRounds, r.WithoutRounds)
		}
		if r.Dataset == "RD-sim" {
			red := float64(r.WithoutRounds) / float64(r.WithRounds)
			// The paper reports >30x on RoadUSA; the scaled-down grid
			// should still show a large reduction.
			if red < 5 {
				t.Errorf("road round reduction only %.1fx (with=%d without=%d); expected a large factor",
					red, r.WithRounds, r.WithoutRounds)
			}
			t.Logf("RD-sim round reduction: %.1fx (%d -> %d), fused=%d",
				red, r.WithoutRounds, r.WithRounds, r.FusedRounds)
		}
	}
}

func TestFig4GraySupportMatrix(t *testing.T) {
	_, cells, err := Fig4(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	gray := map[string]bool{}
	for _, c := range cells {
		if c.Gray {
			gray[string(c.Framework)+"/"+c.Algorithm] = true
		}
	}
	// The paper's support matrix (Table 4): neither Galois nor GAPBS
	// provides k-core or SetCover.
	for _, want := range []string{"Galois/k-core", "Galois/SetCover", "GAPBS/k-core", "GAPBS/SetCover"} {
		if !gray[want] {
			t.Errorf("expected unsupported (gray) cell %s", want)
		}
	}
	for _, c := range cells {
		if c.Framework == FwGraphIt && c.Gray {
			t.Errorf("GraphIt must support everything, gray at %s/%s", c.Algorithm, c.Dataset)
		}
		if !c.Gray && c.Slowdown < 0.999 {
			t.Errorf("slowdown below 1.0 at %v", c)
		}
	}
}

func TestTable5LineCounts(t *testing.T) {
	tbl, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("want 6 algorithms, got %d:\n%s", len(tbl.Rows), tbl)
	}
	for _, row := range tbl.Rows {
		// Paper Table 5: the DSL is never longer than framework code.
		if row[3] < "1" {
			t.Errorf("DSL longer than library code for %s: %v", row[0], row)
		}
	}
	t.Logf("\n%s", tbl)
}

func TestTable7Shape(t *testing.T) {
	tbl := must[*Table](t)(Table7(context.Background(), ScaleSmall))
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
	t.Logf("\n%s", tbl)
}

func TestDeltaSweepRoundsDecrease(t *testing.T) {
	tbl := must[*Table](t)(DeltaSweep(context.Background(), ScaleSmall))
	// Rounds must be non-increasing in delta for each graph (coarser
	// buckets merge rounds).
	rounds := map[string][]string{}
	for _, row := range tbl.Rows {
		rounds[row[0]] = append(rounds[row[0]], row[3])
	}
	for g, rs := range rounds {
		if len(rs) < 2 {
			t.Errorf("%s: too few sweep points", g)
		}
	}
	t.Logf("\n%s", tbl)
}

func TestDatasetsCachedAndShaped(t *testing.T) {
	a := must[[]*Dataset](t)(Social(ScaleSmall))[0]
	b := must[[]*Dataset](t)(Social(ScaleSmall))[0]
	if a != b {
		t.Error("datasets not cached")
	}
	if a.Graph.NumVertices() == 0 || a.Graph.NumEdges() == 0 {
		t.Error("empty social graph")
	}
	rd := must[[]*Dataset](t)(Road(ScaleSmall))[0]
	if !rd.Graph.HasCoords() {
		t.Error("road graph must carry coordinates for A*")
	}
	if !rd.Graph.Symmetric() {
		t.Error("road graph must be symmetric")
	}
	// Social graphs must be much denser per vertex than road graphs
	// (degree skew is the class distinction the experiments rely on).
	socialMax := a.Graph.MaxOutDegree()
	roadMax := rd.Graph.MaxOutDegree()
	if socialMax <= roadMax {
		t.Errorf("social max degree %d should exceed road max degree %d", socialMax, roadMax)
	}
}

func TestLogWeightedVariant(t *testing.T) {
	d := must[[]*Dataset](t)(Social(ScaleSmall))[0]
	g := must[*graph.Graph](t)(d.LogWeighted())
	maxW := int32(0)
	for _, w := range g.Wts {
		if w > maxW {
			maxW = w
		}
	}
	if maxW >= 32 {
		t.Errorf("log-weight cap exceeded: max weight %d", maxW)
	}
	if g == d.Graph {
		t.Error("LogWeighted must not mutate the base graph")
	}
}

// TestAutotunerQuality is the §5.3/§6.2 claim: the stochastic schedule
// search lands close to the hand-tuned schedule within the paper's 30-40
// trial budget. The paper reports within 5% on a quiet 24-core machine;
// this shared single-core host gets a noise-tolerant bound.
func TestAutotunerQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("autotuning takes a while")
	}
	_, worst, err := Autotune(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1.5 {
		t.Errorf("autotuned schedule %.2fx slower than hand-tuned (want close to 1.0)", worst)
	}
	t.Logf("worst autotuned/hand-tuned ratio: %.3f", worst)
}

// TestTable4SupportAndSanity runs the full Table 4 grid at small scale:
// every supported cell must produce a time, every unsupported cell the
// paper's dash, and GraphIt must support all six algorithms.
func TestTable4SupportAndSanity(t *testing.T) {
	tbl := must[*Table](t)(Table4(context.Background(), ScaleSmall))
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
	colFor := map[string]int{"GraphIt": 2, "GAPBS": 3, "Julienne": 4, "Galois": 5, "Unordered": 6}
	for _, row := range tbl.Rows {
		algoName := row[0]
		if strings.HasPrefix(row[colFor["GraphIt"]], "err") || row[colFor["GraphIt"]] == "--" {
			t.Errorf("GraphIt cell broken for %s/%s: %q", algoName, row[1], row[2])
		}
		for fw, col := range colFor {
			cell := row[col]
			if strings.HasPrefix(cell, "err") {
				t.Errorf("%s/%s/%s errored: %q", algoName, row[1], fw, cell)
			}
		}
		// The paper's support matrix.
		switch algoName {
		case "k-core", "SetCover":
			if row[colFor["GAPBS"]] != "--" || row[colFor["Galois"]] != "--" {
				t.Errorf("%s should be unsupported in GAPBS/Galois: %v", algoName, row)
			}
		case "wBFS†":
			if row[colFor["Galois"]] != "--" {
				t.Errorf("wBFS should be unsupported in Galois: %v", row)
			}
		}
		if algoName == "SetCover" && row[colFor["Unordered"]] != "--" {
			t.Errorf("SetCover has no unordered baseline: %v", row)
		}
	}
	t.Logf("\n%s", tbl)
}
