package main

import (
	"container/heap"

	"graphit"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
)

// model is the benchmark's own picture of a mutating graph: an adjacency
// table built from Graph.Edges() and kept current by replaying the ops the
// benchmark sent. It deliberately shares nothing with graph.ApplyDelta, so a
// wrong splice in the program shows as a wrong answer here.
type model struct {
	n     int
	off   []int // base edges of src are dst[off[src]:off[src+1]]
	dst   []uint32
	w     []int32
	alive []bool
	added map[uint32][]modelEdge // edges the op stream added, by source
}

type modelEdge struct {
	dst uint32
	w   int32
}

func newModel(g *graph.Graph) *model {
	edges := g.Edges() // ordered by source
	m := &model{
		n:     g.NumVertices(),
		off:   make([]int, g.NumVertices()+1),
		dst:   make([]uint32, len(edges)),
		w:     make([]int32, len(edges)),
		alive: make([]bool, len(edges)),
		added: map[uint32][]modelEdge{},
	}
	for i, e := range edges {
		m.off[e.Src+1]++
		m.dst[i], m.w[i], m.alive[i] = e.Dst, e.W, true
	}
	for v := 0; v < m.n; v++ {
		m.off[v+1] += m.off[v]
	}
	return m
}

// base returns the position of the live base edge src->dst, or -1.
func (m *model) base(src, dst uint32) int {
	for i := m.off[src]; i < m.off[src+1]; i++ {
		if m.dst[i] == dst && m.alive[i] {
			return i
		}
	}
	return -1
}

func (m *model) has(src, dst uint32) bool {
	if m.base(src, dst) >= 0 {
		return true
	}
	for _, e := range m.added[src] {
		if e.dst == dst {
			return true
		}
	}
	return false
}

// apply replays one acked batch. The streams only emit ops that are valid
// against the model, so an op that does not fit is a benchmark bug.
func (m *model) apply(ops []livegraph.Op) {
	for _, op := range ops {
		switch op.Kind {
		case livegraph.OpReweight:
			if i := m.base(op.Src, op.Dst); i >= 0 {
				m.w[i] = op.W
				continue
			}
			for j, e := range m.added[op.Src] {
				if e.dst == op.Dst {
					m.added[op.Src][j].w = op.W
				}
			}
		case livegraph.OpAdd:
			m.added[op.Src] = append(m.added[op.Src], modelEdge{op.Dst, op.W})
		case livegraph.OpRemove:
			if i := m.base(op.Src, op.Dst); i >= 0 {
				m.alive[i] = false
				continue
			}
			es := m.added[op.Src]
			for j, e := range es {
				if e.dst == op.Dst {
					m.added[op.Src] = append(es[:j:j], es[j+1:]...)
					break
				}
			}
		}
	}
}

type heapItem struct {
	v uint32
	d int64
}

type distHeap []heapItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra is the model's reference shortest-path run (lazy deletion).
func (m *model) dijkstra(src uint32) []int64 {
	dist := make([]int64, m.n)
	for i := range dist {
		dist[i] = graphit.Unreached
	}
	dist[src] = 0
	h := &distHeap{{src, 0}}
	relax := func(v uint32, d int64) {
		if d < dist[v] {
			dist[v] = d
			heap.Push(h, heapItem{v, d})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d != dist[it.v] {
			continue
		}
		for i := m.off[it.v]; i < m.off[it.v+1]; i++ {
			if m.alive[i] {
				relax(m.dst[i], it.d+int64(m.w[i]))
			}
		}
		for _, e := range m.added[it.v] {
			relax(e.dst, it.d+int64(e.w))
		}
	}
	return dist
}
