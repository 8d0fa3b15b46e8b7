package graph

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refBuild is the sort-based builder Build replaced, kept as the test
// oracle: sort the whole edge list by (src, dst, w), drop parallel edges
// after the first (the minimum weight), and count the CSR offsets.
func refBuild(edges []Edge, opt BuildOptions) (*Graph, error) {
	n := opt.NumVertices
	for _, e := range edges {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	if opt.RemoveSelfLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if opt.Symmetrize {
		for _, e := range edges {
			edges = append(edges, Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		opt.RemoveDuplicates = true
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.W < b.W
	})
	if opt.RemoveDuplicates {
		kept := edges[:0]
		for i, e := range edges {
			if i > 0 && e.Src == kept[len(kept)-1].Src && e.Dst == kept[len(kept)-1].Dst {
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}
	g := &Graph{
		n:         n,
		m:         len(edges),
		Off:       make([]int64, n+1),
		Neigh:     make([]VertexID, len(edges)),
		symmetric: opt.Symmetrize,
		Coord:     opt.Coords,
	}
	if opt.Weighted {
		g.Wts = make([]Weight, len(edges))
	}
	for i, e := range edges {
		g.Off[e.Src+1]++
		g.Neigh[i] = e.Dst
		if opt.Weighted {
			g.Wts[i] = e.W
			if e.W > g.maxW {
				g.maxW = e.W
			}
		}
	}
	for v := 0; v < n; v++ {
		g.Off[v+1] += g.Off[v]
	}
	if opt.InEdges {
		buildInEdges(g)
	}
	return g, nil
}

// optionsFromBits maps the low five bits of b onto the boolean options.
func optionsFromBits(b byte) BuildOptions {
	return BuildOptions{
		Symmetrize:       b&1 != 0,
		Weighted:         b&2 != 0,
		InEdges:          b&4 != 0,
		RemoveDuplicates: b&8 != 0,
		RemoveSelfLoops:  b&16 != 0,
	}
}

// checkAgainstRef builds edges with both builders and requires identical
// graphs that pass Validate.
func checkAgainstRef(t *testing.T, edges []Edge, opt BuildOptions) {
	t.Helper()
	want, err := refBuild(append([]Edge(nil), edges...), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(append([]Edge(nil), edges...), opt)
	if err != nil {
		t.Fatalf("Build(%v, %+v): %v", edges, opt, err)
	}
	if err := Validate(got); err != nil {
		t.Fatalf("Build(%v, %+v): %v", edges, opt, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build(%v, %+v)\n got %+v\nwant %+v", edges, opt, got, want)
	}
}

func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weight := func() Weight {
		switch rng.Intn(3) {
		case 0:
			return Weight(rng.Intn(11) - 5)
		case 1:
			return math.MaxInt32 - Weight(rng.Intn(3)) - Weight(rng.Intn(2))<<30
		default:
			return math.MinInt32 + Weight(rng.Intn(3)) + Weight(rng.Intn(2))<<30
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		edges := make([]Edge, rng.Intn(40))
		for i := range edges {
			edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), W: weight()}
			if i > 0 && rng.Intn(4) == 0 { // a parallel edge
				edges[i].Src, edges[i].Dst = edges[i-1].Src, edges[i-1].Dst
			}
			if rng.Intn(8) == 0 {
				edges[i].Dst = edges[i].Src
			}
		}
		for bits := byte(0); bits < 32; bits++ {
			opt := optionsFromBits(bits)
			if trial%3 == 0 {
				opt.NumVertices = n + rng.Intn(3) // padding past the largest endpoint
			}
			checkAgainstRef(t, edges, opt)
		}
	}
}

// FuzzBuild decodes bytes into a small edge list (3 bytes an edge: src and
// dst mod 8, a signed weight) after one option byte, and requires Build to
// agree with the sort-based reference.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0x1f, 0, 1, 5, 0, 1, 3, 2, 2, 9, 1, 0, 0x80})
	f.Add([]byte{0x02, 7, 0, 0xff, 0, 7, 0x7f})
	f.Add([]byte{0x2c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opt := optionsFromBits(data[0])
		if data[0]&32 != 0 {
			opt.NumVertices = 9
		}
		var edges []Edge
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			edges = append(edges, Edge{Src: VertexID(b[0] % 8), Dst: VertexID(b[1] % 8), W: Weight(int8(b[2]))})
		}
		checkAgainstRef(t, edges, opt)
	})
}

func TestBuildRejectsVertexIDLimit(t *testing.T) {
	for _, edges := range [][]Edge{{{Src: math.MaxUint32, Dst: 0}}, {{Src: 0, Dst: math.MaxUint32}}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Build(edges, BuildOptions{})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Build(%v) accepted an endpoint of 2^32-1", edges)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 { // an n+1 offset array would be 32 GiB
			t.Fatalf("Build(%v) allocated %d bytes before failing", edges, d)
		}
	}
	if _, err := Build(nil, BuildOptions{NumVertices: math.MaxUint32 + 1}); err == nil {
		t.Fatal("Build accepted NumVertices = 2^32")
	}
}

// rmatEdges draws m edges of a 2^scale-vertex R-MAT (a=0.57, b=c=0.19).
func rmatEdges(scale, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		var src, dst VertexID
		for bit := VertexID(1) << (scale - 1); bit > 0; bit >>= 1 {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				dst |= bit
			case r < 0.95:
				src |= bit
			default:
				src, dst = src|bit, dst|bit
			}
		}
		edges[i] = Edge{Src: src, Dst: dst, W: Weight(1 + rng.Intn(1000))}
	}
	return edges
}

// TestBuildAllocBytes bounds what Build allocates: its scatter arrays (one
// slot per edge before dedup), the returned arrays if dedup shrank them
// into fresh ones, the offsets, and one scratch key per edge of the
// largest adjacency. A builder that sorts a second O(m) array of keys
// fails it. The last case lists every edge in both directions, as the road
// generator does, so dedup frees half the slots and the arrays shrink.
func TestBuildAllocBytes(t *testing.T) {
	const scale = 14
	rmat := rmatEdges(scale, 8<<scale, 1)
	both := append([]Edge(nil), rmat...)
	for _, e := range rmat {
		both = append(both, Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	for _, c := range []struct {
		name  string
		edges []Edge
		sym   bool
	}{{"rmat", rmat, false}, {"rmat symmetrized", rmat, true}, {"both directions symmetrized", both, true}} {
		deg := make([]int64, 1<<scale)
		for _, e := range c.edges {
			if e.Src == e.Dst {
				continue
			}
			deg[e.Src]++
			if c.sym {
				deg[e.Dst]++
			}
		}
		var raw, maxDeg int64
		for _, d := range deg {
			raw, maxDeg = raw+d, max(maxDeg, d)
		}

		edges := append([]Edge(nil), c.edges...)
		opt := BuildOptions{Weighted: true, Symmetrize: c.sym, RemoveDuplicates: true, RemoveSelfLoops: true}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := Build(edges, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		const slotBytes = 4 + 4                                                  // Neigh + Wts
		budget := raw*slotBytes + 8*int64(g.NumVertices()+1) + 8*maxDeg + 64<<10 // + size-class rounding
		if int64(cap(g.Neigh)) != raw {
			budget += int64(g.NumEdges()) * slotBytes
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: %d edges before dedup, %d after; allocated %d bytes, budget %d", c.name, raw, g.NumEdges(), got, budget)
		if got > budget {
			t.Errorf("%s: Build allocated %d bytes, budget %d", c.name, got, budget)
		}
	}
}
