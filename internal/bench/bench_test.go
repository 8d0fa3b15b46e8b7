package bench

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphit"
	"graphit/algo"
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
	// redundancy; wall-clock follows on multi-core hosts at full scale). The
	// times are not asserted: with the peel's rescan inlined, k-core's time
	// gap on the social stand-ins is within the noise of a loaded 2-vCPU
	// host even at medium scale, where its work ratio is 14-19x.
	for _, r := range rows {
		if wr := r.WorkRatio(); wr <= 1.0 {
			t.Errorf("%s/%s: unordered should do more work, ratio=%.2f (ordered=%d unordered=%d)",
				r.Dataset, r.Algorithm, wr, r.Ordered.Stats.Relaxations, r.Unordered.Stats.Relaxations)
		}
	}
	t.Logf("\n%s", out)
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
	// buckets merge rounds). Rows list each graph's deltas in increasing
	// order.
	rounds := map[string][]int{}
	for _, row := range tbl.Rows {
		r, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("%s at ∆=%s: rounds %q: %v", row[0], row[1], row[3], err)
		}
		if rs := rounds[row[0]]; len(rs) > 0 && r > rs[len(rs)-1] {
			t.Errorf("%s: rounds rose from %d to %d at ∆=%s", row[0], rs[len(rs)-1], r, row[1])
		}
		rounds[row[0]] = append(rounds[row[0]], r)
	}
	for g, rs := range rounds {
		if len(rs) < 2 {
			t.Errorf("%s: too few sweep points", g)
		}
	}
	t.Logf("\n%s", tbl)
}

// byName returns the roster dataset named name at scale s.
func byName(t *testing.T, s Scale, name string) *Dataset {
	t.Helper()
	for _, d := range must[[]*Dataset](t)(datasets(s, table4)) {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no dataset %s", name)
	return nil
}

func TestDatasetsCachedAndShaped(t *testing.T) {
	a := byName(t, ScaleSmall, "LJ-sim")
	b := byName(t, ScaleSmall, "LJ-sim")
	if a != b {
		t.Error("datasets not cached")
	}
	if a.Graph.NumVertices() == 0 || a.Graph.NumEdges() == 0 {
		t.Error("empty social graph")
	}
	rd := byName(t, ScaleSmall, "RD-sim")
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
	d := byName(t, ScaleSmall, "LJ-sim")
	g := must[*graph.Graph](t)(d.As(LogWeighted))
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

// TestDerivedGraphsKeyedByScale: a derived graph belongs to its dataset's
// scale. Deriving LJ-sim at small scale first must not hand the medium
// dataset the small graph.
func TestDerivedGraphsKeyedByScale(t *testing.T) {
	small, medium := byName(t, ScaleSmall, "LJ-sim"), byName(t, ScaleMedium, "LJ-sim")
	for _, v := range []Variant{Symmetrized, LogWeighted} {
		for _, d := range []*Dataset{small, medium} {
			g := must[*graph.Graph](t)(d.As(v))
			if g.NumVertices() != d.Graph.NumVertices() {
				t.Errorf("variant %d of %d-vertex %s has %d vertices", v, d.Graph.NumVertices(), d.Name, g.NumVertices())
			}
		}
	}
}

// TestCatalogueMatchesReference runs every supported catalogue cell on
// every graph Table 4 gives its algorithm, from the first query pair, and
// checks the answer against the spec's sequential reference. Exact specs
// and Galois SSSP, whose approximate ordering still converges, must equal
// it: the whole vector for distances and coreness, Values[dst] for pair
// searches. Galois PPSP and A* stop early, so their answer is a real path:
// never below the reference, and finite when the reference is.
func TestCatalogueMatchesReference(t *testing.T) {
	ctx := context.Background()
	ds := must[[]*Dataset](t)(datasets(ScaleSmall, table4))
	for _, row := range table4Rows {
		for _, d := range ds {
			if row.class != "" && d.Class != row.class {
				continue
			}
			for _, fw := range Frameworks {
				c, ok := lookup(fw, row.alg, d)
				if !ok {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", row.alg, d.Name, fw), func(t *testing.T) {
					q := pairs(d, 1)[0]
					r := c.run(ctx, q[0], q[1])
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					ref := must[*algo.QueryResult](t)(c.spec.Ref(must[*graph.Graph](t)(d.As(c.variant)), q[0], q[1]))
					got, want := r.Result.Values, ref.Values
					switch {
					case c.spec.Kind == algo.KindCover:
						// The bound TestSetCoverNearGreedyQuality holds the
						// parallel cover to.
						if r.Result.NumChosen == 0 || r.Result.NumChosen > 4*ref.NumChosen {
							t.Errorf("cover of %d sets, greedy %d", r.Result.NumChosen, ref.NumChosen)
						}
					case c.spec.Kind == algo.KindPair && !c.spec.Exact:
						if got[q[1]] < want[q[1]] || (got[q[1]] == graphit.Unreached) != (want[q[1]] == graphit.Unreached) {
							t.Errorf("dist(%d→%d) = %d, reference %d", q[0], q[1], got[q[1]], want[q[1]])
						}
					case c.spec.Kind == algo.KindPair:
						if got[q[1]] != want[q[1]] {
							t.Errorf("dist(%d→%d) = %d, reference %d", q[0], q[1], got[q[1]], want[q[1]])
						}
					case !slices.Equal(got, want):
						t.Errorf("%s answer differs from the reference", c.spec.Name)
					}
				})
			}
		}
	}
}

// TestAblationSweepsEveryKnob: every knob reports one row per setting on
// each of its graphs, and none errors.
func TestAblationSweepsEveryKnob(t *testing.T) {
	tbl := must[*Table](t)(Ablation(context.Background(), ScaleSmall))
	rows := map[string]int{}
	for _, row := range tbl.Rows {
		rows[row[0]]++
		if strings.HasPrefix(row[4], "err") {
			t.Errorf("%v errored", row)
		}
	}
	for _, ab := range ablations {
		graphs := 3
		if ab.graph != "" {
			graphs = 1
		}
		if rows[ab.knob] != graphs*len(ab.settings) {
			t.Errorf("%s: %d rows, want %d", ab.knob, rows[ab.knob], graphs*len(ab.settings))
		}
	}
	t.Logf("\n%s", tbl)
}
