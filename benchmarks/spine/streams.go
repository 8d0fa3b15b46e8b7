package main

import (
	"math/rand/v2"

	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/server"
)

const (
	roadGraph   = "road"
	socialGraph = "social"

	roadStrategy   = "eager_with_fusion"
	roadDelta      = 2048
	socialStrategy = "lazy"
	socialDelta    = 16

	reweightBatch = 64
	topoBatch     = 8
)

// queryReq is one generated query; kind labels it for per-kind medians.
type queryReq struct {
	q    server.Query
	kind string
}

// queryStream yields a client's requests; the server sees nothing else of
// the seed.
type queryStream interface{ next() queryReq }

// streamRand derives an independent generator per (seed, stream id).
func streamRand(seed uint64, id uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, id)) }

// roadStream is road_nav's mix: 50% ppsp, 30% astar, 20% sssp over uniform
// random endpoints. With n^2 pairs the cache never hits.
type roadStream struct {
	r *rand.Rand
	n uint32
}

func newRoadStream(seed uint64, client int, g *graph.Graph) *roadStream {
	return &roadStream{r: streamRand(seed, uint64(client)), n: uint32(g.NumVertices())}
}

func (s *roadStream) next() queryReq {
	q := server.Query{Graph: roadGraph, Strategy: roadStrategy, Delta: roadDelta,
		Src: s.r.Uint32N(s.n), Dst: s.r.Uint32N(s.n)}
	switch p := s.r.Float64(); {
	case p < 0.5:
		q.Algo = "ppsp"
	case p < 0.8:
		q.Algo = "astar"
	default:
		q.Algo = "sssp"
		q.Dst = 0
	}
	return queryReq{q, q.Algo}
}

// hotStream is social_hot's mix: 70% sssp, 30% wbfs from Zipf(1.1)-ranked
// sources. The ranking is shared by a run's clients so they share the cache.
type hotStream struct {
	r      *rand.Rand
	z      *rand.Zipf
	ranked []uint32
}

// rankHotKeys orders the fixed working set by this seed's popularity.
func rankHotKeys(seed uint64, candidates []uint32) []uint32 {
	ranked := append([]uint32(nil), candidates...)
	r := streamRand(seed, 1<<32)
	r.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	return ranked
}

func newHotStream(seed uint64, client int, ranked []uint32) *hotStream {
	r := streamRand(seed, uint64(client))
	return &hotStream{r: r, z: rand.NewZipf(r, 1.1, 1, uint64(len(ranked)-1)), ranked: ranked}
}

func (s *hotStream) next() queryReq {
	q := server.Query{Graph: socialGraph, Strategy: socialStrategy, Delta: socialDelta,
		Src: s.ranked[s.z.Uint64()], Algo: "sssp"}
	if s.r.Float64() >= 0.7 {
		q.Algo = "wbfs"
	}
	return queryReq{q, q.Algo}
}

// writeStream is social_churn's writer: 80% batches of 64 reweights of
// existing edges, 20% batches of 8 topology ops (add an absent edge, or
// remove an edge this stream added earlier). It owns the model the answers
// are later checked against; commit folds an acked batch into it.
type writeStream struct {
	r    *rand.Rand
	m    *model
	src  []uint32        // source of base edge i
	mine []livegraph.Op  // edges this stream added and has not removed
	seen map[uint64]bool // edges already touched by the batch being built
	ops  []livegraph.Op  // batch scratch
}

func newWriteStream(seed uint64, g *graph.Graph) *writeStream {
	m := newModel(g)
	src := make([]uint32, len(m.dst))
	for v := 0; v < m.n; v++ {
		for i := m.off[v]; i < m.off[v+1]; i++ {
			src[i] = uint32(v)
		}
	}
	return &writeStream{r: streamRand(seed, 1<<33), m: m, src: src, seen: map[uint64]bool{}}
}

func edgeKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// fresh marks (src, dst) as used by the current batch; ops within a batch
// touch distinct edges so a batch maps onto one graph.Delta directly.
func (s *writeStream) fresh(src, dst uint32) bool {
	k := edgeKey(src, dst)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	return true
}

func (s *writeStream) weight() int32 { return 1 + s.r.Int32N(999) }

func (s *writeStream) next() (ops []livegraph.Op, kind string) {
	clear(s.seen)
	s.ops = s.ops[:0]
	if s.r.Float64() < 0.8 {
		for len(s.ops) < reweightBatch {
			i := s.r.IntN(len(s.m.dst))
			if s.m.alive[i] && s.fresh(s.src[i], s.m.dst[i]) {
				s.ops = append(s.ops, livegraph.Op{Kind: livegraph.OpReweight, Src: s.src[i], Dst: s.m.dst[i], W: s.weight()})
			}
		}
		return s.ops, "reweight64"
	}
	for len(s.ops) < topoBatch {
		if len(s.mine) > 0 && s.r.Float64() < 0.5 {
			e := s.mine[s.r.IntN(len(s.mine))]
			if s.fresh(e.Src, e.Dst) {
				s.ops = append(s.ops, livegraph.Op{Kind: livegraph.OpRemove, Src: e.Src, Dst: e.Dst})
			}
			continue
		}
		src, dst := s.r.Uint32N(uint32(s.m.n)), s.r.Uint32N(uint32(s.m.n))
		if src != dst && !s.m.has(src, dst) && s.fresh(src, dst) {
			s.ops = append(s.ops, livegraph.Op{Kind: livegraph.OpAdd, Src: src, Dst: dst, W: s.weight()})
		}
	}
	return s.ops, "topo8"
}

// commit records an acked batch in the model and the added-edge list.
func (s *writeStream) commit(ops []livegraph.Op) {
	s.m.apply(ops)
	for _, op := range ops {
		switch op.Kind {
		case livegraph.OpAdd:
			s.mine = append(s.mine, op)
		case livegraph.OpRemove:
			for j, e := range s.mine {
				if e.Src == op.Src && e.Dst == op.Dst {
					s.mine[j] = s.mine[len(s.mine)-1]
					s.mine = s.mine[:len(s.mine)-1]
					break
				}
			}
		}
	}
}

// toDelta maps a batch of distinct-edge ops onto the graph.Delta that
// livegraph would build for it.
func toDelta(ops []livegraph.Op) graph.Delta {
	var d graph.Delta
	for _, op := range ops {
		e := graph.Edge{Src: op.Src, Dst: op.Dst, W: op.W}
		switch op.Kind {
		case livegraph.OpAdd:
			d.Add = append(d.Add, e)
		case livegraph.OpRemove:
			d.Del = append(d.Del, e)
		case livegraph.OpReweight:
			d.SetW = append(d.SetW, e)
		}
	}
	return d
}

// wireOps renders a batch as the /update body's op list.
func wireOps(ops []livegraph.Op) []server.UpdateOp {
	out := make([]server.UpdateOp, len(ops))
	for i, op := range ops {
		out[i] = server.UpdateOp{Op: op.Kind.String(), Src: op.Src, Dst: op.Dst, W: op.W}
	}
	return out
}

// drillLog is the recovery drill's fixed log: batches of 64 reweights of base
// edges, from a generator seed so every run replays the same bytes.
func drillLog(g *graph.Graph, batches int) [][]livegraph.Op {
	edges := g.Edges()
	r := streamRand(drillSeed, 0)
	seen := map[uint64]bool{}
	log := make([][]livegraph.Op, batches)
	for b := range log {
		clear(seen)
		ops := make([]livegraph.Op, 0, reweightBatch)
		for len(ops) < reweightBatch {
			e := edges[r.IntN(len(edges))]
			if k := edgeKey(e.Src, e.Dst); !seen[k] {
				seen[k] = true
				ops = append(ops, livegraph.Op{Kind: livegraph.OpReweight, Src: e.Src, Dst: e.Dst, W: 1 + r.Int32N(999)})
			}
		}
		log[b] = ops
	}
	return log
}
