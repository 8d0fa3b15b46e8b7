package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is a directed weighted edge used by builders and loaders.
type Edge struct {
	Src, Dst VertexID
	W        Weight
}

// BuildOptions control CSR construction.
type BuildOptions struct {
	// NumVertices forces |V|; 0 means max endpoint + 1.
	NumVertices int
	// Symmetrize adds the reverse of every edge (and marks the graph
	// symmetric). The paper symmetrizes inputs for k-core and SetCover.
	Symmetrize bool
	// Weighted keeps edge weights; if false, weights are dropped.
	Weighted bool
	// InEdges also builds the transposed CSR (needed for DensePull).
	InEdges bool
	// RemoveDuplicates drops parallel edges, keeping the minimum weight.
	RemoveDuplicates bool
	// RemoveSelfLoops drops edges with Src == Dst.
	RemoveSelfLoops bool
	// Coords attaches per-vertex coordinates (may be nil).
	Coords []Point
}

// Build constructs a CSR graph from an edge list. The edge list is consumed;
// its contents are unspecified afterwards.
//
// Construction is a counting sort, as in GAPBS's builder: one pass counts
// every source's degree (an edge counts for both endpoints under
// Symmetrize), a prefix sum turns the counts into offsets, and a second pass
// scatters each edge straight into the final Neigh/Wts arrays. Each
// vertex's range is then sorted by (destination, weight) and, when
// duplicates are removed, compacted in place so the minimum weight
// survives. The result is the same as sorting the whole edge list by
// (source, destination, weight).
func Build(edges []Edge, opt BuildOptions) (*Graph, error) {
	n := opt.NumVertices
	for _, e := range edges {
		if int(e.Src) >= n {
			n = int(e.Src) + 1
		}
		if int(e.Dst) >= n {
			n = int(e.Dst) + 1
		}
	}
	if int64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d vertices exceed the limit of 2^32-1", n)
	}
	if opt.NumVertices > 0 && n > opt.NumVertices {
		return nil, fmt.Errorf("graph: edge endpoint exceeds NumVertices=%d", opt.NumVertices)
	}
	if opt.Coords != nil && len(opt.Coords) != n {
		return nil, fmt.Errorf("graph: %d coords for %d vertices", len(opt.Coords), n)
	}
	if opt.Symmetrize {
		// Symmetrizing introduces duplicates whenever both directions were
		// already present; always dedup so degrees stay meaningful. A
		// self-loop is its own reverse, so it is scattered once.
		opt.RemoveDuplicates = true
	}
	skip := func(e Edge) bool { return opt.RemoveSelfLoops && e.Src == e.Dst }
	mirror := func(e Edge) bool { return opt.Symmetrize && e.Src != e.Dst }

	// Count: off[v+1] is v's degree, then the prefix sum makes off[v] the
	// start of v's range.
	off := make([]int64, n+1)
	for _, e := range edges {
		if skip(e) {
			continue
		}
		off[e.Src+1]++
		if mirror(e) {
			off[e.Dst+1]++
		}
	}
	var maxDeg int64
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, off[v+1])
		off[v+1] += off[v]
	}
	raw := off[n]

	// Scatter, with off[v] as v's cursor: afterwards off[v] is the end of
	// v's range, which is where v+1's range starts.
	neigh := make([]VertexID, raw)
	var wts []Weight
	if opt.Weighted {
		wts = make([]Weight, raw)
	}
	put := func(src, dst VertexID, w Weight) {
		at := off[src]
		off[src]++
		neigh[at] = dst
		if wts != nil {
			wts[at] = w
		}
	}
	for _, e := range edges {
		if skip(e) {
			continue
		}
		put(e.Src, e.Dst, e.W)
		if mirror(e) {
			put(e.Dst, e.Src, e.W)
		}
	}
	edges = nil // let the collector take the input back during the sort

	// Sort and compact each range, writing the final offsets. Sorted by
	// (dst, w), the first of a run of parallel edges carries the minimum
	// weight.
	var keys []uint64
	if wts != nil {
		keys = make([]uint64, maxDeg)
	}
	var m, lo int64
	for v := 0; v < n; v++ {
		hi := off[v]
		off[v] = m
		if wts == nil {
			slices.Sort(neigh[lo:hi])
		} else {
			sortPairs(neigh[lo:hi], wts[lo:hi], keys)
		}
		if !opt.RemoveDuplicates { // nothing moves
			m, lo = hi, hi
			continue
		}
		for i := lo; i < hi; i++ {
			if m > off[v] && neigh[i] == neigh[m-1] {
				continue
			}
			neigh[m] = neigh[i]
			if wts != nil {
				wts[m] = wts[i]
			}
			m++
		}
		lo = hi
	}
	off[n] = m

	// Keep the scatter arrays unless dedup freed more than a quarter of
	// them: copying costs a transient second set of arrays, keeping costs
	// the slack for the graph's lifetime.
	neigh = neigh[:m]
	if wts != nil {
		wts = wts[:m]
	}
	if 4*(raw-m) > raw {
		neigh, wts = slices.Clone(neigh), slices.Clone(wts)
	}

	g := &Graph{
		n:         n,
		m:         int(m),
		Off:       off,
		Neigh:     neigh,
		Wts:       wts,
		symmetric: opt.Symmetrize,
		Coord:     opt.Coords,
		maxW:      maxWeight(wts),
	}
	if opt.InEdges {
		buildInEdges(g)
	}
	return g, nil
}

// sortPairs sorts the parallel ranges ns and ws by (ns[i], ws[i]), using
// keys (at least len(ns) long) as scratch. A range already in order, such
// as one copied from a built graph's Edges, is left alone; any other sorts
// packed dst<<32 | w keys, where flipping the weight's sign bit makes the
// unsigned key order the signed weight order.
func sortPairs(ns []VertexID, ws []Weight, keys []uint64) {
	sorted := true
	for i := 1; i < len(ns) && sorted; i++ {
		sorted = ns[i-1] < ns[i] || ns[i-1] == ns[i] && ws[i-1] <= ws[i]
	}
	if sorted {
		return
	}
	const sign = 1 << 31
	keys = keys[:len(ns)]
	for i, d := range ns {
		keys[i] = uint64(d)<<32 | uint64(uint32(ws[i])^sign)
	}
	slices.Sort(keys)
	for i, k := range keys {
		ns[i], ws[i] = VertexID(k>>32), Weight(uint32(k)^sign)
	}
}

// buildInEdges fills the transposed CSR from the out-CSR.
func buildInEdges(g *Graph) {
	g.InOff = make([]int64, g.n+1)
	g.InNeigh = make([]VertexID, g.m)
	if g.Wts != nil {
		g.InWts = make([]Weight, g.m)
	}
	for _, d := range g.Neigh {
		g.InOff[d+1]++
	}
	for v := 0; v < g.n; v++ {
		g.InOff[v+1] += g.InOff[v]
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.InOff[:g.n])
	for s := 0; s < g.n; s++ {
		for i := g.Off[s]; i < g.Off[s+1]; i++ {
			d := g.Neigh[i]
			at := cursor[d]
			cursor[d]++
			g.InNeigh[at] = VertexID(s)
			if g.Wts != nil {
				g.InWts[at] = g.Wts[i]
			}
		}
	}
}

// EnsureInEdges builds the pull-direction CSR if absent.
func (g *Graph) EnsureInEdges() {
	if g.InOff == nil {
		buildInEdges(g)
	}
}

// Edges reconstructs the edge list of g (out-direction).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		ws := g.OutWts(VertexID(v))
		for i, d := range g.OutNeigh(VertexID(v)) {
			var w Weight
			if ws != nil {
				w = ws[i]
			}
			out = append(out, Edge{Src: VertexID(v), Dst: d, W: w})
		}
	}
	return out
}

// Symmetrized returns a symmetrized copy of g (with in-edges aliased to the
// out-edges, as they are identical in a symmetric graph).
func (g *Graph) Symmetrized() (*Graph, error) {
	sg, err := Build(g.Edges(), BuildOptions{
		NumVertices:     g.n,
		Symmetrize:      true,
		Weighted:        g.Weighted(),
		RemoveSelfLoops: true,
		Coords:          g.Coord,
	})
	if err != nil {
		return nil, err
	}
	sg.InOff, sg.InNeigh, sg.InWts = sg.Off, sg.Neigh, sg.Wts
	return sg, nil
}
