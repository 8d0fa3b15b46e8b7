package livegraph

import (
	"errors"
	"strings"
	"testing"
	"time"

	"graphit/internal/faults"
	"graphit/internal/graph"
	"graphit/internal/testutil"
)

// newTestLive builds a live graph over a small weighted directed base:
//
//	0 -> 1 (w 5), 0 -> 2 (w 3), 1 -> 2 (w 1), 2 -> 0 (w 7), 3 isolated
func newTestLive(t *testing.T, cfg Config) *Live {
	t.Helper()
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 3},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 0, W: 7},
	}, graph.BuildOptions{NumVertices: 4, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return New("test", g, cfg)
}

func weightOf(g *graph.Graph, src, dst graph.VertexID) (graph.Weight, bool) {
	ws := g.OutWts(src)
	for i, d := range g.OutNeigh(src) {
		if d == dst {
			return ws[i], true
		}
	}
	return 0, false
}

func TestApplyBatchAdvancesEpochAndIsolatesSnapshots(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{})
	defer l.Close()

	s0 := l.Acquire()
	if s0 == nil || s0.Epoch() != 0 {
		t.Fatalf("initial snapshot = %v", s0)
	}
	fp0 := graph.Fingerprint(s0.Graph())

	res, err := l.ApplyBatch([]Op{
		{Kind: OpReweight, Src: 0, Dst: 1, W: 50},
		{Kind: OpAdd, Src: 3, Dst: 0, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Applied != 2 {
		t.Fatalf("result = %+v", res)
	}

	// The pinned epoch-0 snapshot is untouched, byte for byte.
	if graph.Fingerprint(s0.Graph()) != fp0 {
		t.Fatal("epoch-0 snapshot mutated by a batch")
	}
	if w, ok := weightOf(s0.Graph(), 0, 1); !ok || w != 5 {
		t.Fatalf("old snapshot sees new weight: %d", w)
	}

	s1 := l.Acquire()
	if s1.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s1.Epoch())
	}
	if w, _ := weightOf(s1.Graph(), 0, 1); w != 50 {
		t.Fatalf("new snapshot weight 0->1 = %d, want 50", w)
	}
	if !s1.Graph().HasEdge(3, 0) {
		t.Fatal("new snapshot missing added edge")
	}
	s0.Release()
	s1.Release()
}

func TestSequentialBatchSemantics(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{})
	defer l.Close()

	// add → reweight → remove of a new edge nets out to nothing.
	res, err := l.ApplyBatch([]Op{
		{Kind: OpAdd, Src: 3, Dst: 1, W: 9},
		{Kind: OpReweight, Src: 3, Dst: 1, W: 4},
		{Kind: OpRemove, Src: 3, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := l.Acquire()
	if s.Graph().HasEdge(3, 1) {
		t.Fatal("cancelled add still present")
	}
	if s.Epoch() != res.Epoch {
		t.Fatalf("epoch mismatch %d vs %d", s.Epoch(), res.Epoch)
	}
	s.Release()

	// remove → add replaces an existing edge's weight.
	if _, err := l.ApplyBatch([]Op{
		{Kind: OpRemove, Src: 0, Dst: 1},
		{Kind: OpAdd, Src: 0, Dst: 1, W: 77},
	}); err != nil {
		t.Fatal(err)
	}
	s = l.Acquire()
	if w, ok := weightOf(s.Graph(), 0, 1); !ok || w != 77 {
		t.Fatalf("replace: weight 0->1 = %d ok=%v, want 77", w, ok)
	}
	s.Release()
}

func TestApplyBatchValidation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{MaxBatchOps: 4})
	defer l.Close()

	cases := []struct {
		name string
		ops  []Op
		want error
	}{
		{"empty", nil, ErrValidation},
		{"duplicate add", []Op{{Kind: OpAdd, Src: 0, Dst: 1, W: 1}}, ErrValidation},
		{"double add in batch", []Op{{Kind: OpAdd, Src: 3, Dst: 1, W: 1}, {Kind: OpAdd, Src: 3, Dst: 1, W: 2}}, ErrValidation},
		{"remove missing", []Op{{Kind: OpRemove, Src: 3, Dst: 1}}, ErrValidation},
		{"reweight missing", []Op{{Kind: OpReweight, Src: 3, Dst: 1, W: 1}}, ErrValidation},
		{"out of range", []Op{{Kind: OpAdd, Src: 0, Dst: 99, W: 1}}, ErrValidation},
		{"negative weight", []Op{{Kind: OpAdd, Src: 3, Dst: 1, W: -1}}, ErrValidation},
		{"unknown kind", []Op{{Kind: 0, Src: 0, Dst: 1}}, ErrValidation},
		{"too large", []Op{{}, {}, {}, {}, {}}, ErrBatchTooLarge},
	}
	for _, tc := range cases {
		if _, err := l.ApplyBatch(tc.ops); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if l.Epoch() != 0 {
		t.Fatalf("failed batches advanced the epoch to %d", l.Epoch())
	}
}

func TestImmutableAndClosed(t *testing.T) {
	defer testutil.LeakCheck(t)()
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1, W: 5}},
		graph.BuildOptions{NumVertices: 2, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	sym := New("sym", g, Config{})
	defer sym.Close()
	if sym.Mutable() {
		t.Fatal("symmetrized graph reported mutable")
	}
	if _, err := sym.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 2}}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("err = %v, want ErrImmutable", err)
	}

	l := newTestLive(t, Config{})
	l.Close()
	l.Close() // idempotent
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if s := l.Acquire(); s != nil {
		t.Fatal("Acquire after Close returned a snapshot")
	}
}

func TestSnapshotReclaimedExactlyOnLastRelease(t *testing.T) {
	defer testutil.LeakCheck(t)()
	var reclaimed []uint64
	ch := make(chan uint64, 16)
	l := newTestLive(t, Config{OnReclaim: func(e uint64) { ch <- e }})

	s0a := l.Acquire()
	s0b := l.Acquire()
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}}); err != nil {
		t.Fatal(err)
	}
	// Epoch 0 has two outstanding query refs; the owner ref was dropped by
	// the batch. Nothing reclaimed yet.
	select {
	case e := <-ch:
		t.Fatalf("epoch %d reclaimed while refs outstanding", e)
	case <-time.After(20 * time.Millisecond):
	}
	s0a.Release()
	select {
	case e := <-ch:
		t.Fatalf("epoch %d reclaimed with one ref outstanding", e)
	case <-time.After(20 * time.Millisecond):
	}
	s0b.Release() // last ref: reclamation happens exactly here
	select {
	case e := <-ch:
		reclaimed = append(reclaimed, e)
	case <-time.After(time.Second):
		t.Fatal("epoch 0 never reclaimed")
	}
	if len(reclaimed) != 1 || reclaimed[0] != 0 {
		t.Fatalf("reclaimed = %v, want [0]", reclaimed)
	}
	if got := l.active.Load(); got != 1 {
		t.Fatalf("active snapshots = %d, want 1 (current epoch)", got)
	}
	l.Close()
	select {
	case e := <-ch:
		if e != 1 {
			t.Fatalf("close reclaimed epoch %d, want 1", e)
		}
	case <-time.After(time.Second):
		t.Fatal("current epoch never reclaimed on Close")
	}
	if got := l.active.Load(); got != 0 {
		t.Fatalf("active snapshots after Close = %d, want 0", got)
	}
}

func TestCompactNowRebuildsAndKeepsEpoch(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{})
	defer l.Close()

	if _, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 3, Dst: 2, W: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 2, W: 30}}); err != nil {
		t.Fatal(err)
	}
	before := l.Acquire()
	fp := graph.Fingerprint(before.Graph())
	if err := l.CompactNow(); err != nil {
		t.Fatal(err)
	}
	after := l.Acquire()

	if st := l.Status(); st.Compactions != 1 || st.CompactionFailures != 0 || st.OverlayOps != 0 {
		t.Fatalf("status = %+v", st)
	}
	// Content-preserving: same epoch, same logical graph, fresh arrays.
	if after.Epoch() != before.Epoch() {
		t.Fatalf("compaction changed epoch %d -> %d", before.Epoch(), after.Epoch())
	}
	if after.Graph() == before.Graph() {
		t.Fatal("compaction did not swap the graph")
	}
	if graph.Fingerprint(after.Graph()) != fp || graph.Fingerprint(before.Graph()) != fp {
		t.Fatal("rebuild changed the graph's content (or wrote into the pinned one)")
	}
	if err := graph.Validate(after.Graph()); err != nil {
		t.Fatal(err)
	}
	before.Release()
	after.Release()

	// The rebuilt pair is this Live's own: the next reweights recycle it.
	st0 := l.Status()
	for w := graph.Weight(1); w <= 3; w++ {
		if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 2, W: w}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Status()
	if c, r := st.PlaneCopies-st0.PlaneCopies, st.PlanesRecycled-st0.PlanesRecycled; c != 1 || r != 2 {
		t.Fatalf("after a rebuild, 3 reweights: %d copies, %d recycled; want 1 and 2", c, r)
	}
}

func TestCompactNowPanicIsContained(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, phase := range []string{PhaseCompactBuild, PhaseCompactSwap} {
		t.Run(phase, func(t *testing.T) {
			inj := faults.New(faults.PanicAt(phase, 1, "injected compaction fault"))
			l := newTestLive(t, Config{FaultHook: inj.Hook()})
			defer l.Close()

			if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}}); err != nil {
				t.Fatal(err)
			}
			pinned := l.Acquire()

			// The attempt panics at the injected checkpoint; containment
			// turns it into an error and serving is untouched.
			err := l.CompactNow()
			if err == nil || !strings.Contains(err.Error(), "injected compaction fault") {
				t.Fatalf("err = %v, want contained injected panic", err)
			}
			st := l.Status()
			if st.CompactionFailures != 1 || st.Compactions != 0 || st.LastCompactError == "" {
				t.Fatalf("status after panic = %+v", st)
			}
			s := l.Acquire()
			if s == nil || s.Epoch() != 1 {
				t.Fatalf("serving disrupted: snapshot %v", s)
			}
			if w, _ := weightOf(s.Graph(), 0, 1); w != 9 {
				t.Fatalf("current epoch weight = %d, want 9", w)
			}
			s.Release()
			pinned.Release()

			// Nothing was left locked or half-swapped: writers and a second
			// (one-shot trigger spent) CompactNow both go through.
			if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 4}}); err != nil {
				t.Fatalf("batch after contained panic: %v", err)
			}
			if err := l.CompactNow(); err != nil {
				t.Fatalf("second CompactNow: %v", err)
			}
			if st := l.Status(); st.Compactions != 1 || st.LastCompactError != "" {
				t.Fatalf("status after second CompactNow = %+v", st)
			}
		})
	}
}

func TestStatusCounters(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{})
	defer l.Close()
	if _, err := l.ApplyBatch([]Op{
		{Kind: OpAdd, Src: 3, Dst: 0, W: 1},
		{Kind: OpReweight, Src: 0, Dst: 1, W: 2},
	}); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.Name != "test" || !st.Mutable || st.Epoch != 1 ||
		st.Batches != 1 || st.OpsApplied != 2 || st.OverlayOps != 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestMaxWeightBoundFollowsBatches: a weight-only batch lands in a weight
// plane the Live owns, not through ApplyDelta; its snapshot's MaxWeight
// must still rise with a heavier weight and never fall.
func TestMaxWeightBoundFollowsBatches(t *testing.T) {
	l := newTestLive(t, Config{})
	defer l.Close()
	for _, step := range []struct {
		op   Op
		want graph.Weight
	}{
		{Op{Kind: OpReweight, Src: 0, Dst: 1, W: 60}, 60},
		{Op{Kind: OpReweight, Src: 0, Dst: 1, W: 2}, 60},
		{Op{Kind: OpAdd, Src: 3, Dst: 0, W: 80}, 80},
		{Op{Kind: OpRemove, Src: 3, Dst: 0}, 80},
	} {
		if _, err := l.ApplyBatch([]Op{step.op}); err != nil {
			t.Fatal(err)
		}
		s := l.Acquire()
		if got := s.Graph().MaxWeight(); got != step.want {
			t.Errorf("after %+v: MaxWeight %d, want %d", step.op, got, step.want)
		}
		s.Release()
	}
}
