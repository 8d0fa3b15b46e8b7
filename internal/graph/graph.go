// Package graph provides the compressed-sparse-row (CSR) graph substrate
// shared by every engine in this repository. It supports directed and
// symmetrized weighted graphs, in-edge (pull-direction) views, and optional
// per-vertex coordinates for A* search.
//
// Representation choices follow the frameworks the paper evaluates (GAPBS,
// Julienne, Ligra): 32-bit vertex ids, 32-bit integer weights, 64-bit edge
// offsets, with out- and in-CSR stored separately so both SparsePush and
// DensePull traversals are O(1) per neighbor access.
package graph

import "fmt"

// VertexID identifies a vertex; graphs are limited to 2^32-1 vertices.
type VertexID = uint32

// Weight is an integer edge weight, as in the paper's experiments (random
// weights in [1,1000), [1,log n) for wBFS, or original road weights).
type Weight = int32

// Graph is an immutable CSR graph. The zero value is an empty graph.
//
// Out-edges of v are Neigh[Off[v]:Off[v+1]] with weights
// Wts[Off[v]:Off[v+1]]. If the graph was built with in-edges, the analogous
// InOff/InNeigh/InWts describe the transposed graph.
type Graph struct {
	n int // number of vertices
	m int // number of directed edges

	Off   []int64
	Neigh []VertexID
	Wts   []Weight // nil for unweighted graphs

	InOff   []int64
	InNeigh []VertexID
	InWts   []Weight

	// Coord holds optional per-vertex coordinates (longitude, latitude in
	// micro-degrees or arbitrary planar units) used by A* heuristics.
	Coord []Point

	symmetric bool
	// maxW bounds every edge weight from above (see MaxWeight).
	maxW Weight
}

// Point is a planar coordinate attached to a vertex (road networks).
type Point struct {
	X, Y int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges |E|.
func (g *Graph) NumEdges() int { return g.m }

// Symmetric reports whether the graph was symmetrized at build time.
func (g *Graph) Symmetric() bool { return g.symmetric }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.Wts != nil }

// MaxWeight returns an upper bound on every edge weight: the largest weight
// when the graph was built or loaded, raised by ApplyDelta (and WithWeights)
// for a heavier weight and never lowered. It is 0 for an unweighted graph.
func (g *Graph) MaxWeight() Weight { return g.maxW }

// maxWeight returns the largest of ws, or 0 when ws is empty.
func maxWeight(ws []Weight) Weight {
	var m Weight
	for _, w := range ws {
		m = max(m, w)
	}
	return m
}

// HasInEdges reports whether the pull-direction CSR is available.
func (g *Graph) HasInEdges() bool { return g.InOff != nil }

// HasCoords reports whether per-vertex coordinates are available.
func (g *Graph) HasCoords() bool { return g.Coord != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.Off[v+1] - g.Off[v])
}

// InDegree returns the in-degree of v; the graph must have in-edges.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.InOff[v+1] - g.InOff[v])
}

// OutNeigh returns the out-neighbor slice of v (do not modify).
func (g *Graph) OutNeigh(v VertexID) []VertexID {
	return g.Neigh[g.Off[v]:g.Off[v+1]]
}

// OutWts returns the weights parallel to OutNeigh(v) (nil if unweighted).
func (g *Graph) OutWts(v VertexID) []Weight {
	if g.Wts == nil {
		return nil
	}
	return g.Wts[g.Off[v]:g.Off[v+1]]
}

// InNeighbors returns the in-neighbor slice of v (do not modify).
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.InNeigh[g.InOff[v]:g.InOff[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v).
func (g *Graph) InWeights(v VertexID) []Weight {
	if g.InWts == nil {
		return nil
	}
	return g.InWts[g.InOff[v]:g.InOff[v+1]]
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	kind := "directed"
	if g.symmetric {
		kind = "symmetric"
	}
	w := "unweighted"
	if g.Weighted() {
		w = "weighted"
	}
	return fmt.Sprintf("graph{%s %s |V|=%d |E|=%d}", kind, w, g.n, g.m)
}

// MaxOutDegree returns the largest out-degree (0 for an empty graph).
func (g *Graph) MaxOutDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.OutDegree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// TotalOutDegree sums out-degrees of the given vertices. The lazy engine
// uses it to size per-round edge buffers (paper Figure 9(a)).
func (g *Graph) TotalOutDegree(vs []VertexID) int64 {
	var t int64
	for _, v := range vs {
		t += g.Off[v+1] - g.Off[v]
	}
	return t
}
