package algo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphit"
	"graphit/internal/bucket"
)

// coverErr checks a cover's validity: every element is covered, by a set
// that is in the cover and actually contains it.
func coverErr(g *graphit.Graph, res *SetCoverResult) error {
	n := g.NumVertices()
	for e := 0; e < n; e++ {
		s := res.CoveredBy[e]
		if s < 0 {
			return fmt.Errorf("element %d uncovered", e)
		}
		if !res.Chosen[s] {
			return fmt.Errorf("element %d covered by unchosen set %d", e, s)
		}
		if !setContains(g, uint32(s), uint32(e)) {
			return fmt.Errorf("set %d does not contain element %d", s, e)
		}
	}
	if res.NumChosen == 0 || res.NumChosen > n {
		return fmt.Errorf("implausible cover size %d", res.NumChosen)
	}
	return nil
}

func TestSetCoverCoversUniverse(t *testing.T) {
	for gname, g := range symGraphs(t) {
		for _, nb := range []int{128, 8} {
			t.Run(fmt.Sprintf("%s/window%d", gname, nb), func(t *testing.T) {
				res, err := SetCover(g, graphit.DefaultSchedule().ConfigNumBuckets(nb))
				if err != nil {
					t.Fatal(err)
				}
				if err := coverErr(g, res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// setContains reports whether set s covers element e (s == e or e ∈ N(s)).
func setContains(g *graphit.Graph, s, e uint32) bool {
	if s == e {
		return true
	}
	for _, u := range g.OutNeigh(s) {
		if u == e {
			return true
		}
	}
	return false
}

// refSetCover is the serial three-phase round SetCover ran before sets
// packed their lists: every phase sweeps each ready set's whole CSR range
// plus itself, and a third phase releases the round's reservations. At one
// worker SetCover must reproduce its cover and its bucket statistics.
func refSetCover(g *graphit.Graph, numBuckets int) *SetCoverResult {
	const unreserved = int64(math.MaxInt64)
	const uncoveredMark = int64(-1)
	n := g.NumVertices()
	coveredBy := make([]int64, n)
	reserve := make([]int64, n)
	prio := make([]int64, n)
	chosen := make([]bool, n)
	for v := 0; v < n; v++ {
		coveredBy[v] = uncoveredMark
		reserve[v] = unreserved
		prio[v] = int64(g.OutDegree(uint32(v))) + 1
	}
	lz := bucket.NewLazy(n, bucket.Decreasing, numBuckets, func(v uint32) int64 {
		if p := prio[v]; p > 0 {
			return p
		}
		return bucket.NullBkt
	})
	elementsOf := func(s uint32) []uint32 {
		return append([]uint32{s}, g.OutNeigh(s)...)
	}
	var st graphit.Stats
	num := 0
	for {
		bid, sets := lz.Next()
		if bid == bucket.NullBkt {
			break
		}
		st.Rounds++
		for _, s := range sets {
			for _, e := range elementsOf(s) {
				if coveredBy[e] == uncoveredMark && int64(s) < reserve[e] {
					reserve[e] = int64(s)
				}
			}
		}
		var updated []uint32
		for _, s := range sets {
			var won int64
			for _, e := range elementsOf(s) {
				if coveredBy[e] == uncoveredMark && reserve[e] == int64(s) {
					won++
				}
			}
			if won >= (bid+1)/2 {
				chosen[s] = true
				num++
				for _, e := range elementsOf(s) {
					if reserve[e] == int64(s) {
						coveredBy[e] = int64(s)
					}
				}
				prio[s] = 0
				continue
			}
			var c int64
			for _, e := range elementsOf(s) {
				if coveredBy[e] == uncoveredMark {
					c++
				}
			}
			if prio[s] = c; c > 0 {
				updated = append(updated, s)
			}
		}
		for _, s := range sets {
			for _, e := range elementsOf(s) {
				if reserve[e] == int64(s) {
					reserve[e] = unreserved
				}
			}
		}
		st.GlobalSyncs += 3
		lz.UpdateBuckets(updated)
	}
	st.BucketInserts = lz.Inserts
	st.WindowAdvances = lz.Rebuckets
	return &SetCoverResult{Chosen: chosen, CoveredBy: coveredBy, NumChosen: num, Stats: st}
}

// randomSymGraph is a symmetrized random graph with skewed degrees, parallel
// edges, self-loops, and isolated vertices (the top eighth of the ids).
func randomSymGraph(t *testing.T, seed int64, n, m int) *graphit.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	live := n - n/8
	pick := func() uint32 {
		if r.Intn(4) == 0 {
			return uint32(r.Intn(8)) // hubs
		}
		return uint32(r.Intn(live))
	}
	edges := make([]graphit.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := pick()
		v := u
		if r.Intn(10) != 0 {
			v = pick()
		}
		edges = append(edges, graphit.Edge{Src: u, Dst: v, W: 1})
	}
	g, err := graphit.BuildGraph(edges, graphit.BuildOptions{NumVertices: n, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// symRMAT is a symmetrized R-MAT graph with edge factor 8.
func symRMAT(t *testing.T, scale int) *graphit.Graph {
	t.Helper()
	opt := graphit.DefaultRMAT(scale, 8, 7)
	opt.Symmetrize = true
	g, err := graphit.RMAT(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameCover reports the first difference between a cover and the oracle's.
func sameCover(got, want *SetCoverResult) error {
	if !slices.Equal(got.Chosen, want.Chosen) {
		return fmt.Errorf("Chosen differs (%d vs %d sets)", got.NumChosen, want.NumChosen)
	}
	if !slices.Equal(got.CoveredBy, want.CoveredBy) {
		return fmt.Errorf("CoveredBy differs")
	}
	g, w := got.Stats, want.Stats
	if g.Rounds != w.Rounds || g.BucketInserts != w.BucketInserts || g.WindowAdvances != w.WindowAdvances {
		return fmt.Errorf("rounds/inserts/advances %d/%d/%d, oracle %d/%d/%d",
			g.Rounds, g.BucketInserts, g.WindowAdvances, w.Rounds, w.BucketInserts, w.WindowAdvances)
	}
	if g.GlobalSyncs != 2*g.Rounds {
		return fmt.Errorf("%d global syncs over %d rounds, want 2 per round", g.GlobalSyncs, g.Rounds)
	}
	return nil
}

func TestSetCoverMatchesReferenceAtOneWorker(t *testing.T) {
	road, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 40, Cols: 40, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graphit.Graph{
		"road40":  road,
		"rmat10":  symRMAT(t, 10),
		"rmat14":  symRMAT(t, 14),
		"random1": randomSymGraph(t, 1, 3000, 9000),
		"random2": randomSymGraph(t, 2, 500, 4000),
		"random3": randomSymGraph(t, 3, 64, 40),
	}
	for gname, g := range graphs {
		for _, nb := range []int{128, 8} {
			t.Run(fmt.Sprintf("%s/window%d", gname, nb), func(t *testing.T) {
				res, err := SetCover(g, graphit.DefaultSchedule().ConfigNumBuckets(nb).ConfigNumWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCover(res, refSetCover(g, nb)); err != nil {
					t.Fatal(err)
				}
				if err := coverErr(g, res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSetCoverConcurrentWorkers runs covers at different worker counts at
// once on one graph: each run owns its executor and per-worker lists, so
// every cover is valid and near greedy, and every one-worker run still
// equals the oracle.
func TestSetCoverConcurrentWorkers(t *testing.T) {
	g := symRMAT(t, 11)
	want := refSetCover(g, 128)
	_, greedy, err := GreedySetCover(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range []int{1, 2, 4, 1, 2, 4} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := SetCover(g, graphit.DefaultSchedule().ConfigNumWorkers(w))
			if err == nil {
				err = coverErr(g, res)
			}
			if err == nil && 2*res.NumChosen > 3*greedy {
				err = fmt.Errorf("cover of %d sets vs greedy %d (> 1.5x)", res.NumChosen, greedy)
			}
			if err == nil && w == 1 {
				err = sameCover(res, want)
			}
			if err != nil {
				t.Errorf("workers=%d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}

// pathGraph is the path 0-1-...-(n-1). Its sets all start in bucket 3 and
// commit one per round from the left end, so a cover takes ~n/3 rounds.
func pathGraph(t *testing.T, n int) *graphit.Graph {
	t.Helper()
	edges := make([]graphit.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graphit.Edge{Src: uint32(v - 1), Dst: uint32(v), W: 1})
	}
	g, err := graphit.BuildGraph(edges, graphit.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// starsGraph is n/64 disjoint stars of 63 leaves: every center commits in
// the first round and the leaves drain in the second.
func starsGraph(t *testing.T, n int) *graphit.Graph {
	t.Helper()
	var edges []graphit.Edge
	for v := 0; v < n; v++ {
		if v%64 != 0 {
			edges = append(edges, graphit.Edge{Src: uint32(v - v%64), Dst: uint32(v), W: 1})
		}
	}
	g, err := graphit.BuildGraph(edges, graphit.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSetCoverSteadyStateAllocs: a round allocates nothing once its
// per-worker lists are warm, so a whole run's allocation count does not
// grow with its rounds. The two graphs have the same vertex count; the path
// takes hundreds of times the stars' rounds. The bound leaves room for the
// capacity doublings of the path's re-bucket lists and bucket slabs, which
// grow with log n, not with rounds.
func TestSetCoverSteadyStateAllocs(t *testing.T) {
	const n = 1024
	sched := graphit.DefaultSchedule().ConfigNumWorkers(1)
	measure := func(g *graphit.Graph) (float64, int64) {
		res, err := SetCover(g, sched)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { SetCover(g, sched) }), res.Stats.Rounds
	}
	few, fewRounds := measure(starsGraph(t, n))
	many, manyRounds := measure(pathGraph(t, n))
	if manyRounds < 10*fewRounds {
		t.Fatalf("path takes %d rounds vs the stars' %d; want >= 10x", manyRounds, fewRounds)
	}
	t.Logf("stars: %.0f allocs over %d rounds; path: %.0f allocs over %d rounds", few, fewRounds, many, manyRounds)
	if many-few > 24 {
		t.Errorf("path run allocates %.0f more times than the stars run; rounds must not allocate", many-few)
	}
}

func TestSetCoverNearGreedyQuality(t *testing.T) {
	for gname, g := range symGraphs(t) {
		res, err := SetCover(g, graphit.DefaultSchedule())
		if err != nil {
			t.Fatal(err)
		}
		_, greedy, err := GreedySetCover(g)
		if err != nil {
			t.Fatal(err)
		}
		// The bucketed nearly-independent algorithm commits sets covering
		// at least half the bucket's value, so its cost should stay within
		// a small constant factor of sequential greedy.
		if res.NumChosen > 4*greedy {
			t.Errorf("%s: parallel cover %d sets vs greedy %d (> 4x)", gname, res.NumChosen, greedy)
		}
		t.Logf("%s: parallel=%d greedy=%d rounds=%d", gname, res.NumChosen, greedy, res.Stats.Rounds)
	}
}
func TestGreedySetCoverIsValid(t *testing.T) {
	g := symGraphs(t)["rmat"]
	chosen, num, err := GreedySetCover(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	covered := make([]bool, n)
	cnt := 0
	for s := 0; s < n; s++ {
		if !chosen[s] {
			continue
		}
		cnt++
		if !covered[s] {
			covered[s] = true
		}
		for _, e := range g.OutNeigh(uint32(s)) {
			covered[e] = true
		}
	}
	if cnt != num {
		t.Fatalf("reported %d chosen, counted %d", num, cnt)
	}
	for e := 0; e < n; e++ {
		if !covered[e] {
			t.Fatalf("greedy left element %d uncovered", e)
		}
	}
}

func TestSetCoverRejectsCoarseningAndDirected(t *testing.T) {
	g := symGraphs(t)["rmat"]
	if _, err := SetCover(g, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(2)); err == nil {
		t.Error("expected error for set cover with ∆ > 1")
	}
	dg, err := graphit.RMAT(graphit.DefaultRMAT(6, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetCover(dg, graphit.DefaultSchedule()); err == nil {
		t.Error("expected error for set cover on a directed graph")
	}
}
