package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// buildTest builds a small weighted directed graph with in-edges:
//
//	0 -> 1 (w 5), 0 -> 2 (w 3), 1 -> 2 (w 1), 2 -> 0 (w 7), 3 isolated
func buildTest(t *testing.T) *Graph {
	t.Helper()
	g, err := Build([]Edge{
		{0, 1, 5}, {0, 2, 3}, {1, 2, 1}, {2, 0, 7},
	}, BuildOptions{NumVertices: 4, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeKey packs a (src, dst) pair for map indexing.
func edgeKey(s, d VertexID) uint64 { return uint64(s)<<32 | uint64(d) }

func adjOf(g *Graph, v VertexID) map[VertexID]Weight {
	out := map[VertexID]Weight{}
	ws := g.OutWts(v)
	for i, d := range g.OutNeigh(v) {
		if ws != nil {
			out[d] = ws[i]
		} else {
			out[d] = 0
		}
	}
	return out
}

func TestApplyDeltaReweightFastPath(t *testing.T) {
	g := buildTest(t)
	ng, err := ApplyDelta(g, Delta{SetW: []Edge{{0, 2, 9}, {2, 0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Topology arrays are shared, weight arrays are not.
	if &ng.Neigh[0] != &g.Neigh[0] || &ng.Off[0] != &g.Off[0] {
		t.Error("reweight fast path should share topology arrays")
	}
	if &ng.Wts[0] == &g.Wts[0] {
		t.Error("reweight fast path must copy Wts")
	}
	if &ng.InWts[0] == &g.InWts[0] {
		t.Error("reweight fast path must copy InWts")
	}
	if got := adjOf(ng, 0)[2]; got != 9 {
		t.Errorf("new weight 0->2 = %d, want 9", got)
	}
	if got := adjOf(g, 0)[2]; got != 3 {
		t.Errorf("original graph mutated: 0->2 = %d, want 3", got)
	}
	// In-CSR weights updated to match.
	found := false
	for i, src := range ng.InNeighbors(2) {
		if src == 0 && ng.InWeights(2)[i] == 9 {
			found = true
		}
	}
	if !found {
		t.Error("in-CSR weight for 0->2 not updated")
	}
	if err := Validate(ng); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaAddRemove(t *testing.T) {
	g := buildTest(t)
	ng, err := ApplyDelta(g, Delta{
		Add: []Edge{{3, 0, 4}, {0, 3, 2}},
		Del: []Edge{{1, 2, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("edge count %d, want %d", ng.NumEdges(), g.NumEdges()+1)
	}
	if !ng.HasEdge(3, 0) || !ng.HasEdge(0, 3) {
		t.Error("added edges missing")
	}
	if ng.HasEdge(1, 2) {
		t.Error("removed edge still present")
	}
	if g.HasEdge(3, 0) || !g.HasEdge(1, 2) {
		t.Error("original graph mutated")
	}
	if err := Validate(ng); err != nil {
		t.Fatal(err)
	}
	// In-CSR rebuilt consistently: vertex 0 gains in-neighbor 3.
	gotIn := false
	for _, src := range ng.InNeighbors(0) {
		if src == 3 {
			gotIn = true
		}
	}
	if !gotIn {
		t.Error("in-CSR missing added edge 3->0")
	}
}

func TestApplyDeltaReplace(t *testing.T) {
	// Del + Add of the same pair in one delta replaces the edge.
	g := buildTest(t)
	ng, err := ApplyDelta(g, Delta{
		Add: []Edge{{0, 1, 42}},
		Del: []Edge{{0, 1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := adjOf(ng, 0)[1]; got != 42 {
		t.Errorf("replaced weight = %d, want 42", got)
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Errorf("replace changed edge count: %d != %d", ng.NumEdges(), g.NumEdges())
	}
	if err := Validate(ng); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := buildTest(t)
	cases := []struct {
		name string
		d    Delta
	}{
		{"add existing", Delta{Add: []Edge{{0, 1, 1}}}},
		{"add out of range", Delta{Add: []Edge{{0, 99, 1}}}},
		{"add negative weight", Delta{Add: []Edge{{3, 1, -2}}}},
		{"del missing", Delta{Del: []Edge{{3, 1, 0}}}},
		{"del out of range", Delta{Del: []Edge{{99, 0, 0}}}},
		{"setw missing", Delta{SetW: []Edge{{3, 1, 2}}}},
		{"setw negative", Delta{SetW: []Edge{{0, 1, -1}}}},
		{"setw out of range", Delta{SetW: []Edge{{0, 99, 1}}}},
		{"setw missing with topology change", Delta{Add: []Edge{{3, 1, 1}}, SetW: []Edge{{3, 2, 2}}}},
		{"del missing with add", Delta{Add: []Edge{{3, 1, 1}}, Del: []Edge{{3, 2, 0}}}},
	}
	for _, tc := range cases {
		if _, err := ApplyDelta(g, tc.d); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// Errors must not have mutated g.
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 || adjOf(g, 0)[1] != 5 {
		t.Error("failed deltas mutated the original graph")
	}
}

func TestApplyDeltaRejectsSymmetric(t *testing.T) {
	g, err := Build([]Edge{{0, 1, 5}}, BuildOptions{NumVertices: 2, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(g, Delta{SetW: []Edge{{0, 1, 2}}}); err == nil {
		t.Fatal("symmetric graph accepted a delta")
	}
}

func TestApplyDeltaUnweighted(t *testing.T) {
	g, err := Build([]Edge{{0, 1, 0}, {1, 2, 0}}, BuildOptions{NumVertices: 3, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(g, Delta{SetW: []Edge{{0, 1, 3}}}); err == nil {
		t.Fatal("unweighted graph accepted a reweight")
	}
	ng, err := ApplyDelta(g, Delta{Add: []Edge{{2, 0, 0}}, Del: []Edge{{0, 1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ng); err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdge(2, 0) || ng.HasEdge(0, 1) || ng.Weighted() {
		t.Error("unweighted topology delta wrong")
	}
}

// TestApplyDeltaAgainstBuildOracle drives a long random mutation sequence
// through ApplyDelta and checks each step against a from-scratch Build of
// the same logical edge set — the incremental path must agree with the
// batch builder it will eventually be compacted by.
func TestApplyDeltaAgainstBuildOracle(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(7))
	want := map[uint64]Weight{} // logical edge set
	var edges []Edge
	for i := 0; i < 40; i++ {
		s, d := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		k := edgeKey(s, d)
		if _, ok := want[k]; ok {
			continue
		}
		w := Weight(rng.Intn(100))
		want[k] = w
		edges = append(edges, Edge{s, d, w})
	}
	g, err := Build(edges, BuildOptions{NumVertices: n, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step int) {
		t.Helper()
		if err := Validate(g); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var el []Edge
		for k, w := range want {
			el = append(el, Edge{VertexID(k >> 32), VertexID(k & 0xffffffff), w})
		}
		oracle, err := Build(el, BuildOptions{NumVertices: n, Weighted: true, InEdges: true})
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		if g.NumEdges() != oracle.NumEdges() {
			t.Fatalf("step %d: %d edges, oracle %d", step, g.NumEdges(), oracle.NumEdges())
		}
		for v := 0; v < n; v++ {
			ga, oa := adjOf(g, VertexID(v)), adjOf(oracle, VertexID(v))
			if len(ga) != len(oa) {
				t.Fatalf("step %d: vertex %d adjacency mismatch %v vs %v", step, v, ga, oa)
			}
			for d, w := range oa {
				if ga[d] != w {
					t.Fatalf("step %d: edge %d->%d weight %d, oracle %d", step, v, d, ga[d], w)
				}
			}
		}
		// The in-CSR is spliced on its own, never re-derived: it must be
		// array-identical to what buildInEdges makes of the spliced out-CSR.
		derived := &Graph{n: g.n, m: g.m, Off: g.Off, Neigh: g.Neigh, Wts: g.Wts}
		buildInEdges(derived)
		if !slices.Equal(g.InOff, derived.InOff) || !slices.Equal(g.InNeigh, derived.InNeigh) || !slices.Equal(g.InWts, derived.InWts) {
			t.Fatalf("step %d: spliced in-CSR differs from buildInEdges of the spliced out-CSR:\n off %v\nwant %v\n nbr %v\nwant %v\n wts %v\nwant %v",
				step, g.InOff, derived.InOff, g.InNeigh, derived.InNeigh, g.InWts, derived.InWts)
		}
	}

	for step := 0; step < 60; step++ {
		var d Delta
		for tries := 0; tries < 6; tries++ {
			s, dst := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			k := edgeKey(s, dst)
			_, exists := want[k]
			switch rng.Intn(3) {
			case 0: // add
				if exists || inDelta(&d, k) {
					continue
				}
				w := Weight(rng.Intn(100))
				d.Add = append(d.Add, Edge{s, dst, w})
				want[k] = w
			case 1: // remove
				if !exists || inDelta(&d, k) {
					continue
				}
				d.Del = append(d.Del, Edge{s, dst, 0})
				delete(want, k)
			case 2: // reweight
				if !exists || inDelta(&d, k) {
					continue
				}
				w := Weight(rng.Intn(100))
				d.SetW = append(d.SetW, Edge{s, dst, w})
				want[k] = w
			}
		}
		if d.Empty() {
			continue
		}
		ng, err := ApplyDelta(g, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g = ng
		check(step)
	}
}

func inDelta(d *Delta, k uint64) bool {
	for _, e := range d.Add {
		if edgeKey(e.Src, e.Dst) == k {
			return true
		}
	}
	for _, e := range d.Del {
		if edgeKey(e.Src, e.Dst) == k {
			return true
		}
	}
	for _, e := range d.SetW {
		if edgeKey(e.Src, e.Dst) == k {
			return true
		}
	}
	return false
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	g := buildTest(t)
	c := Clone(g)
	if Fingerprint(c) != Fingerprint(g) {
		t.Fatal("clone fingerprint differs")
	}
	if &c.Neigh[0] == &g.Neigh[0] || &c.Off[0] == &g.Off[0] || &c.Wts[0] == &g.Wts[0] {
		t.Fatal("clone shares memory with original")
	}
	c.Wts[0]++
	if Fingerprint(c) == Fingerprint(g) {
		t.Fatal("fingerprint blind to weight change")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := buildTest(t)
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := Clone(g)
	bad.Neigh[0] = 99 // out-of-range neighbor
	if err := Validate(bad); err == nil {
		t.Error("out-of-range neighbor not caught")
	}
	bad2 := Clone(g)
	bad2.Off[1] = bad2.Off[2] + 1 // non-monotone offsets
	if err := Validate(bad2); err == nil {
		t.Error("non-monotone offsets not caught")
	}
	bad3 := Clone(g)
	bad3.Wts = bad3.Wts[:2]
	if err := Validate(bad3); err == nil {
		t.Error("short weight vector not caught")
	}
}

// TestSpliceShapes covers the adjacency shapes the random oracle rarely
// builds: parallel edges addressed as a group, the last edge of a vertex,
// the first edge onto an isolated vertex, an unweighted graph, and a graph
// without an in-CSR. Each result equals a from-scratch Build, array for
// array.
func TestSpliceShapes(t *testing.T) {
	cases := []struct {
		name  string
		base  []Edge
		opt   BuildOptions
		d     Delta
		after []Edge
	}{
		{
			name:  "parallel edges removed and reweighted as groups",
			base:  []Edge{{0, 1, 5}, {0, 1, 6}, {0, 2, 1}, {2, 1, 3}, {2, 1, 4}},
			opt:   BuildOptions{NumVertices: 3, Weighted: true, InEdges: true},
			d:     Delta{Del: []Edge{{0, 1, 0}}, SetW: []Edge{{2, 1, 9}}, Add: []Edge{{1, 0, 2}}},
			after: []Edge{{0, 2, 1}, {1, 0, 2}, {2, 1, 9}, {2, 1, 9}},
		},
		{
			name:  "last edge of a vertex, first edge of an isolated one",
			base:  []Edge{{0, 1, 5}, {1, 2, 6}},
			opt:   BuildOptions{NumVertices: 4, Weighted: true, InEdges: true},
			d:     Delta{Del: []Edge{{1, 2, 0}}, Add: []Edge{{3, 0, 7}, {2, 3, 1}}},
			after: []Edge{{0, 1, 5}, {2, 3, 1}, {3, 0, 7}},
		},
		{
			name:  "replace",
			base:  []Edge{{0, 1, 5}, {0, 2, 6}},
			opt:   BuildOptions{NumVertices: 3, Weighted: true, InEdges: true},
			d:     Delta{Del: []Edge{{0, 1, 0}}, Add: []Edge{{0, 1, 8}}, SetW: []Edge{{0, 1, 3}}},
			after: []Edge{{0, 1, 8}, {0, 2, 6}},
		},
		{
			name:  "unweighted",
			base:  []Edge{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}},
			opt:   BuildOptions{NumVertices: 3, InEdges: true},
			d:     Delta{Del: []Edge{{2, 0, 0}}, Add: []Edge{{0, 2, 0}, {2, 1, 0}}},
			after: []Edge{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {2, 1, 0}},
		},
		{
			name:  "no in-CSR",
			base:  []Edge{{0, 1, 5}, {1, 2, 6}},
			opt:   BuildOptions{NumVertices: 3, Weighted: true},
			d:     Delta{Add: []Edge{{2, 0, 1}}, SetW: []Edge{{0, 1, 2}}},
			after: []Edge{{0, 1, 2}, {1, 2, 6}, {2, 0, 1}},
		},
	}
	for _, tc := range cases {
		g, err := Build(tc.base, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := Fingerprint(g)
		ng, err := ApplyDelta(g, tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := Build(tc.after, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Validate(ng); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if Fingerprint(ng) != Fingerprint(want) {
			t.Errorf("%s: spliced graph differs from Build of the same edges:\n got %v\nwant %v", tc.name, ng.Edges(), want.Edges())
		}
		if Fingerprint(g) != before {
			t.Errorf("%s: ApplyDelta wrote into its input", tc.name)
		}
	}
}

// TestMaxWeightBound: MaxWeight is the largest weight after Build and after
// a binary round trip, and ApplyDelta keeps it an upper bound that only
// grows — a heavier added or rewritten weight raises it through both the
// weight-only and the topology path; lighter weights and removals leave it.
func TestMaxWeightBound(t *testing.T) {
	g, err := Build([]Edge{{0, 1, 5}, {1, 2, 7}, {2, 0, 3}},
		BuildOptions{NumVertices: 3, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxWeight() != 7 {
		t.Fatalf("built: MaxWeight %d, want 7", g.MaxWeight())
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if rg, err := ReadBinary(&buf); err != nil || rg.MaxWeight() != 7 {
		t.Fatalf("loaded: MaxWeight %v (err %v), want 7", rg.MaxWeight(), err)
	}
	steps := []struct {
		name string
		d    Delta
		want Weight
	}{
		{"heavier reweight", Delta{SetW: []Edge{{0, 1, 40}}}, 40},
		{"lighter reweight", Delta{SetW: []Edge{{0, 1, 1}}}, 40},
		{"heavier add", Delta{Add: []Edge{{0, 2, 90}}}, 90},
		{"remove the heaviest", Delta{Del: []Edge{{0, 2, 0}}}, 90},
		{"reweight beside a topology change", Delta{Add: []Edge{{1, 0, 2}}, SetW: []Edge{{1, 2, 120}}}, 120},
	}
	for _, s := range steps {
		if g, err = ApplyDelta(g, s.d); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if g.MaxWeight() != s.want {
			t.Fatalf("%s: MaxWeight %d, want %d", s.name, g.MaxWeight(), s.want)
		}
	}
	u, err := Build([]Edge{{0, 1, 0}}, BuildOptions{NumVertices: 2})
	if err != nil || u.MaxWeight() != 0 {
		t.Fatalf("unweighted: MaxWeight %v (err %v), want 0", u.MaxWeight(), err)
	}
}
