package livegraph_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/testutil"
	"graphit/internal/wal"
)

// edgeModel is the naive side of TestLiveAgainstEdgeModel: a multiset of
// edges keyed by endpoint pair, with the batch semantics livegraph
// documents (parallel copies are addressed as a group; remove→add inside
// one batch is a weight rewrite). It shares no code with the CSR path —
// each epoch is compared by building a fresh graph from its edge list.
type edgeModel struct {
	n        int
	opt      graph.BuildOptions
	weighted bool
	edges    map[[2]graph.VertexID][]graph.Weight
}

func (m *edgeModel) pairs() [][2]graph.VertexID {
	ps := make([][2]graph.VertexID, 0, len(m.edges))
	for p := range m.edges {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		return ps[i][0] < ps[j][0] || ps[i][0] == ps[j][0] && ps[i][1] < ps[j][1]
	})
	return ps
}

// build is the oracle: graph.Build of the model's edge list.
func (m *edgeModel) build(t *testing.T) *graph.Graph {
	t.Helper()
	var el []graph.Edge
	for p, ws := range m.edges {
		for _, w := range ws {
			el = append(el, graph.Edge{Src: p[0], Dst: p[1], W: w})
		}
	}
	g, err := graph.Build(el, m.opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (m *edgeModel) fingerprint(t *testing.T) uint64 {
	t.Helper()
	return graph.Fingerprint(m.build(t))
}

// apply folds one batch in, op by op, the way the documentation reads.
func (m *edgeModel) apply(ops []livegraph.Op) {
	had := map[[2]graph.VertexID]int{} // copies a pair had when the batch began
	for _, op := range ops {
		p := [2]graph.VertexID{op.Src, op.Dst}
		if _, seen := had[p]; !seen {
			had[p] = len(m.edges[p])
		}
		w := op.W
		if !m.weighted {
			w = 0
		}
		switch op.Kind {
		case livegraph.OpAdd:
			// An edge removed earlier in this batch comes back as the same
			// number of copies, all at the new weight.
			m.edges[p] = make([]graph.Weight, max(had[p], 1))
			for i := range m.edges[p] {
				m.edges[p][i] = w
			}
		case livegraph.OpRemove:
			delete(m.edges, p)
		case livegraph.OpReweight:
			for i := range m.edges[p] {
				m.edges[p][i] = w
			}
		}
	}
}

// batch draws one batch of a random kind against the model's current state.
func (m *edgeModel) batch(r *rand.Rand) []livegraph.Op {
	ps := m.pairs()
	existing := func() [2]graph.VertexID { return ps[r.Intn(len(ps))] }
	absent := func() [2]graph.VertexID {
		for {
			p := [2]graph.VertexID{graph.VertexID(r.Intn(m.n)), graph.VertexID(r.Intn(m.n))}
			if _, ok := m.edges[p]; !ok {
				return p
			}
		}
	}
	w := func() graph.Weight { return graph.Weight(1 + r.Intn(99)) }
	distinct := map[[2]graph.VertexID]bool{}
	pick := func(f func() [2]graph.VertexID) ([2]graph.VertexID, bool) {
		for tries := 0; tries < 8; tries++ {
			if p := f(); !distinct[p] {
				distinct[p] = true
				return p, true
			}
		}
		return [2]graph.VertexID{}, false
	}
	var ops []livegraph.Op
	add := func(kind livegraph.OpKind, p [2]graph.VertexID) {
		ops = append(ops, livegraph.Op{Kind: kind, Src: p[0], Dst: p[1], W: w()})
	}
	kind := r.Intn(6)
	if !m.weighted && kind == 0 {
		kind = 1
	}
	if len(ps) < 4 {
		kind = 1 // nearly empty: grow
	}
	for i, k := 0, 1+r.Intn(4); i < k; i++ {
		switch kind {
		case 0: // reweight
			if p, ok := pick(existing); ok {
				add(livegraph.OpReweight, p)
			}
		case 1: // add (onto isolated vertices too)
			if p, ok := pick(absent); ok {
				add(livegraph.OpAdd, p)
			}
		case 2: // remove (a vertex's last edge too)
			if p, ok := pick(existing); ok {
				add(livegraph.OpRemove, p)
			}
		case 3: // replace
			if p, ok := pick(existing); ok {
				add(livegraph.OpRemove, p)
				add(livegraph.OpAdd, p)
			}
		case 4: // nets to nothing
			if p, ok := pick(absent); ok {
				add(livegraph.OpAdd, p)
				if m.weighted {
					add(livegraph.OpReweight, p)
				}
				add(livegraph.OpRemove, p)
			}
		case 5: // one of each
			if p, ok := pick(absent); ok {
				add(livegraph.OpAdd, p)
			}
			if p, ok := pick(existing); ok {
				add(livegraph.OpRemove, p)
			}
			if p, ok := pick(existing); ok && m.weighted {
				add(livegraph.OpReweight, p)
			}
		}
	}
	if len(ops) == 0 {
		p := absent()
		add(livegraph.OpAdd, p)
	}
	return ops
}

// TestLiveAgainstEdgeModel drives seeded sequences of mixed batches through
// a durable Live while pins of random length hold random epochs — so weight
// planes come back with every lag, across topology changes, rebuilds and
// checkpoints — and background readers pin and fingerprint concurrently
// (the test is meant for -race). At every epoch the snapshot must be
// array-identical to graph.Build of the model's edge list; every pinned
// snapshot must read the same at release as at acquire; and after a kill
// (the store abandoned, never closed) Recover must land on the last acked
// epoch with the model's fingerprint.
func TestLiveAgainstEdgeModel(t *testing.T) {
	shapes := []struct {
		name string
		opt  graph.BuildOptions
	}{
		{"weighted", graph.BuildOptions{Weighted: true, InEdges: true}},
		{"weighted-no-in-csr", graph.BuildOptions{Weighted: true}},
		{"unweighted", graph.BuildOptions{InEdges: true}},
	}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for _, shape := range shapes {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shape.name, seed), func(t *testing.T) {
				defer testutil.LeakCheck(t)()
				runModel(t, shape.opt, int64(seed))
			})
		}
	}
}

func runModel(t *testing.T, opt graph.BuildOptions, seed int64) {
	const n, batches = 12, 160
	r := rand.New(rand.NewSource(seed))
	opt.NumVertices = n
	m := &edgeModel{n: n, opt: opt, weighted: opt.Weighted, edges: map[[2]graph.VertexID][]graph.Weight{}}
	// Base: random edges out of 0..n-3 with some parallel copies; vertex n-2
	// has exactly one out-edge and n-1 is isolated.
	for i := 0; i < 30; i++ {
		p := [2]graph.VertexID{graph.VertexID(r.Intn(n - 2)), graph.VertexID(r.Intn(n - 1))}
		var w graph.Weight
		if opt.Weighted {
			w = graph.Weight(1 + r.Intn(99))
		}
		if len(m.edges[p]) < 3 {
			m.edges[p] = append(m.edges[p], w)
		}
	}
	only := graph.Weight(0)
	if opt.Weighted {
		only = 7
	}
	m.edges[[2]graph.VertexID{n - 2, 0}] = []graph.Weight{only}
	base := m.build(t)
	baseFP := graph.Fingerprint(base)

	dir := t.TempDir()
	open := func() (*livegraph.Live, livegraph.RecoverInfo) {
		store, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		l, info, err := livegraph.Recover("model", base, store, livegraph.Config{})
		if err != nil {
			_ = store.Close()
			t.Fatal(err)
		}
		return l, info
	}
	l, _ := open()

	// Background readers: pin whatever is current, check it reads the same
	// (and never negative) a moment later, release.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders() // a t.Fatalf below must not leave them spinning
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(rr *rand.Rand) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.Acquire()
				fp := graph.Fingerprint(s.Graph())
				for spin := rr.Intn(200); spin > 0; spin-- {
					for _, w := range s.Graph().Wts {
						if w < 0 {
							t.Errorf("epoch %d: pinned snapshot reads weight %d", s.Epoch(), w)
						}
					}
				}
				if graph.Fingerprint(s.Graph()) != fp {
					t.Errorf("epoch %d: pinned snapshot changed under a background reader", s.Epoch())
				}
				s.Release()
			}
		}(rand.New(rand.NewSource(seed*100 + int64(i))))
	}

	type pin struct {
		s     *livegraph.Snapshot
		fp    uint64
		until int
	}
	var pins []pin
	for b := 1; b <= batches; b++ {
		ops := m.batch(r)
		res, err := l.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("batch %d %v: %v", b, ops, err)
		}
		m.apply(ops)
		if res.Epoch != uint64(b) {
			t.Fatalf("batch %d acked epoch %d", b, res.Epoch)
		}
		s := l.Acquire()
		fp := graph.Fingerprint(s.Graph())
		if s.Epoch() != uint64(b) || fp != m.fingerprint(t) {
			t.Fatalf("epoch %d after %v: snapshot (epoch %d) differs from Build of the model's edges:\n got %v", b, ops, s.Epoch(), s.Graph().Edges())
		}
		if err := graph.Validate(s.Graph()); err != nil {
			t.Fatalf("epoch %d: %v", b, err)
		}
		// Pin about a third of the epochs, for spans from one batch to far
		// past the reach of the patch log.
		if r.Intn(3) == 0 {
			span := 1 + r.Intn(8)
			if r.Intn(6) == 0 {
				span = 40 + r.Intn(60)
			}
			pins = append(pins, pin{s, fp, b + span})
		} else {
			s.Release()
		}
		kept := pins[:0]
		for _, p := range pins {
			if p.until > b {
				kept = append(kept, p)
				continue
			}
			if graph.Fingerprint(p.s.Graph()) != p.fp {
				t.Fatalf("epoch %d, pinned until %d: snapshot changed while pinned", p.s.Epoch(), p.until)
			}
			p.s.Release()
		}
		pins = kept
		switch r.Intn(25) {
		case 0:
			if err := l.CompactNow(); err != nil {
				t.Fatalf("CompactNow at epoch %d: %v", b, err)
			}
		case 1:
			if err := l.CheckpointNow(); err != nil {
				t.Fatalf("CheckpointNow at epoch %d: %v", b, err)
			}
		}
	}
	stopReaders()
	for _, p := range pins {
		if graph.Fingerprint(p.s.Graph()) != p.fp {
			t.Errorf("epoch %d: snapshot changed while pinned", p.s.Epoch())
		}
		p.s.Release()
	}
	if st := l.Status(); opt.Weighted && st.PlanesRecycled == 0 {
		t.Errorf("no plane was ever recycled: %+v", st)
	}
	want := m.fingerprint(t)

	// Kill: walk away from l and its store without closing either.
	l2, info := open()
	defer l2.Close()
	if info.Epoch != batches {
		t.Fatalf("recovered to epoch %d, want %d (%+v)", info.Epoch, batches, info)
	}
	s := l2.Acquire()
	defer s.Release()
	if graph.Fingerprint(s.Graph()) != want {
		t.Fatalf("recovered graph differs from the model at epoch %d:\n got %v", batches, s.Graph().Edges())
	}
	if graph.Fingerprint(base) != baseFP {
		t.Error("the caller's base graph was written")
	}
}
