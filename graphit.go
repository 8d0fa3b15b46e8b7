// Package graphit is a Go implementation of the priority-based extension to
// the GraphIt domain-specific language described in
//
//	Zhang, Brahmakshatriya, Chen, Dhulipala, Kamil, Amarasinghe, Shun.
//	"Optimizing Ordered Graph Algorithms with GraphIt". CGO 2020.
//
// It provides three levels of API:
//
//   - A runtime library for ordered (priority-driven) parallel graph
//     algorithms: abstract priority queues with bucketing (paper Table 1),
//     schedulable execution strategies — eager bucket update with the
//     paper's bucket fusion optimization, eager without fusion, lazy, and
//     lazy with constant-sum (histogram) reduction (paper Table 2) —
//     combined with push/pull traversal directions.
//   - Ready-made ordered algorithms in package graphit/algo: ∆-stepping
//     SSSP, weighted BFS, point-to-point shortest paths, A* search, k-core
//     decomposition, and approximate set cover, plus the unordered
//     baselines the paper compares against.
//   - A compiler for the GraphIt algorithm-language subset of the paper
//     (Figure 3) with its scheduling language (Figure 8): parsing, type
//     checking, the paper's program analyses and UDF transformations
//     (Section 5), Go code generation (Figure 9), and an executable plan
//     backend.
package graphit

import (
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/core"
	"graphit/internal/gen"
	"graphit/internal/graph"
)

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Weight is an integer edge weight.
type Weight = graph.Weight

// Edge is a directed weighted edge for graph construction.
type Edge = graph.Edge

// Graph is a CSR graph (see graphit/internal/graph for representation
// details). Construct one with LoadGraph, BuildGraph, or the generators.
type Graph = graph.Graph

// Point is a planar vertex coordinate used by A* heuristics.
type Point = graph.Point

// Unreached is the null priority of lower_first queues: vertices with this
// priority are in no bucket (the paper's ∅ / INT_MAX).
const Unreached = core.Unreached

// Stats are the machine-independent execution counters returned by every
// ordered run: rounds, fused rounds, global synchronizations, relaxations,
// and bucket insertions (the fidelity signal for paper Table 6).
type Stats = core.Stats

// BuildOptions control graph construction from edge lists.
type BuildOptions = graph.BuildOptions

// LoadGraph loads a graph file (.el, .wel, .gr DIMACS, or .bin snapshot).
func LoadGraph(path string, opt BuildOptions) (*Graph, error) {
	return graph.LoadFile(path, opt)
}

// BuildGraph constructs a CSR graph from an edge list. The edge list is
// consumed; its contents are unspecified afterwards.
func BuildGraph(edges []Edge, opt BuildOptions) (*Graph, error) {
	return graph.Build(edges, opt)
}

// RMATOptions parameterize the R-MAT generator (social/web stand-ins).
type RMATOptions = gen.RMATOptions

// RMAT generates a power-law R-MAT graph, the stand-in for the paper's
// social networks (LiveJournal, Twitter, ...).
func RMAT(opt RMATOptions) (*Graph, error) { return gen.RMAT(opt) }

// DefaultRMAT returns Graph500 R-MAT parameters with weights in [1,1000).
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATOptions {
	return gen.DefaultRMAT(scale, edgeFactor, seed)
}

// RoadOptions parameterize the road-network generator.
type RoadOptions = gen.RoadOptions

// RoadGrid generates a large-diameter road-like network with coordinates
// and Euclidean weights, the stand-in for the paper's road graphs
// (RoadUSA, Germany, Massachusetts).
func RoadGrid(opt RoadOptions) (*Graph, error) { return gen.Road(opt) }

// WriteMin atomically lowers *p to v and reports whether v won. User-defined
// functions that maintain auxiliary vertex data beside the priority vector
// (e.g. A* search's dist array) use it for the atomic relaxations the
// GraphIt compiler would insert (paper §5.1).
func WriteMin(p *int64, v int64) bool { return atomicutil.WriteMin(p, v) }

// WriteMax atomically raises *p to v and reports whether v won.
func WriteMax(p *int64, v int64) bool { return atomicutil.WriteMax(p, v) }

// AtomicLoad reads *p atomically; use it to read vertex data that other
// workers may be updating concurrently.
func AtomicLoad(p *int64) int64 { return atomicutil.Load(p) }

// AtomicStore writes *p atomically.
func AtomicStore(p *int64, v int64) { atomicutil.Store(p, v) }

// AtomicAdd atomically adds v to *p and returns the new value.
func AtomicAdd(p *int64, v int64) int64 { return atomic.AddInt64(p, v) }

// NullMax is the null priority of higher_first queues (the analogue of
// Unreached for max-ordered priority queues).
const NullMax = core.NullMax
