package algo_test

import (
	"context"
	"strings"
	"testing"

	"graphit"
	"graphit/algo"
)

func registryGraph(t *testing.T) *graphit.Graph {
	t.Helper()
	g, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 12, Cols: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLookupKnownAndUnknown(t *testing.T) {
	for _, name := range algo.Names() {
		sp, err := algo.Lookup(name)
		if err != nil || sp.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, sp, err)
		}
		if sp.Run == nil || sp.Ref == nil {
			t.Fatalf("%s: registry entry missing Run or Ref", name)
		}
	}
	_, err := algo.Lookup("pagerank")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, frag := range append([]string{`unknown algorithm "pagerank"`, "valid:"}, algo.Names()...) {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err, frag)
		}
	}
}

// TestRegistryRunMatchesRef runs every exact algorithm through its registry
// entry point and compares against its own sequential reference — the same
// dispatch path the CLI and graphd use.
func TestRegistryRunMatchesRef(t *testing.T) {
	g := registryGraph(t)
	src, dst := graphit.VertexID(0), graphit.VertexID(g.NumVertices()-1)
	for _, name := range algo.Names() {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Exact {
			continue
		}
		t.Run(name, func(t *testing.T) {
			sched := graphit.DefaultSchedule()
			if sp.Kind == algo.KindDist || sp.Kind == algo.KindPair {
				// Coarsening is valid for the path algorithms; k-core
				// requires exact priorities (∆=1).
				sched = sched.ConfigApplyPriorityUpdateDelta(32)
			}
			res, err := sp.Run(context.Background(), g, src, dst, sched)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			ref, err := sp.Ref(g, src, dst)
			if err != nil {
				t.Fatalf("Ref: %v", err)
			}
			switch sp.Kind {
			case algo.KindPair:
				if res.Values[dst] != ref.Values[dst] {
					t.Fatalf("dist(dst) = %d, want %d", res.Values[dst], ref.Values[dst])
				}
			default:
				for i := range ref.Values {
					if res.Values[i] != ref.Values[i] {
						t.Fatalf("vertex %d: got %d, want %d", i, res.Values[i], ref.Values[i])
					}
				}
			}
			if res.Stats.Rounds == 0 {
				t.Fatalf("%s: no engine rounds recorded", name)
			}
		})
	}
}

// TestRegistryRunHonoursSchedule: every entry reads the schedule it is
// given, so an invalid one (a negative worker count) is an error, never
// silently ignored. The graph satisfies every entry's requirements, so the
// error can only come from the schedule.
func TestRegistryRunHonoursSchedule(t *testing.T) {
	g := registryGraph(t)
	src, dst := graphit.VertexID(0), graphit.VertexID(g.NumVertices()-1)
	sched := graphit.DefaultSchedule().ConfigNumWorkers(-1)
	for _, name := range algo.Names() {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.CheckGraph(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = sp.Run(context.Background(), g, src, dst, sched)
		if err == nil || !strings.Contains(err.Error(), "worker count") {
			t.Errorf("%s: Run with ConfigNumWorkers(-1) returned %v, want the schedule's worker-count error", name, err)
		}
	}
}

func TestCheckGraphGatesRequirements(t *testing.T) {
	road := registryGraph(t)
	rmat, err := graphit.RMAT(graphit.DefaultRMAT(6, 4, 1)) // asymmetric, no coords
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo string
		g    *graphit.Graph
		frag string // "" = must pass
	}{
		{"sssp", road, ""},
		{"astar", road, ""},
		{"kcore", road, ""},
		{"kcore", rmat, "symmetrized"},
		{"setcover", rmat, "symmetrized"},
		{"astar", rmat, "coordinates"},
	}
	for _, tc := range cases {
		sp, err := algo.Lookup(tc.algo)
		if err != nil {
			t.Fatal(err)
		}
		err = sp.CheckGraph(tc.g)
		if tc.frag == "" {
			if err != nil {
				t.Fatalf("%s on valid graph: %v", tc.algo, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: err %v, want %q", tc.algo, err, tc.frag)
		}
	}
}
