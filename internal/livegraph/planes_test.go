package livegraph

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"graphit/internal/gen"
	"graphit/internal/graph"
	"graphit/internal/testutil"
	"graphit/internal/wal"
)

func reweight(t *testing.T, l *Live, src, dst graph.VertexID, w graph.Weight) {
	t.Helper()
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: src, Dst: dst, W: w}}); err != nil {
		t.Fatal(err)
	}
}

func freePlanes(l *Live) int {
	l.planes.mu.Lock()
	defer l.planes.mu.Unlock()
	return len(l.planes.free)
}

// TestAcquireDoesNotWaitForWriter holds a writer inside its apply — after
// the next graph is built, before it is swapped in — and requires readers
// to keep pinning the previous epoch meanwhile.
func TestAcquireDoesNotWaitForWriter(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := newTestLive(t, Config{})
	defer l.Close()
	inside, resume := make(chan struct{}), make(chan struct{})
	l.holdApply = func() {
		close(inside)
		<-resume
	}
	applied := make(chan error, 1)
	go func() {
		_, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 3, Dst: 0, W: 2}})
		applied <- err
	}()
	<-inside

	acquired := make(chan *Snapshot, 1)
	go func() { acquired <- l.Acquire() }()
	select {
	case s := <-acquired:
		if s.Epoch() != 0 || l.Epoch() != 0 {
			t.Errorf("reader saw epoch %d (Live says %d) while the batch was still being applied", s.Epoch(), l.Epoch())
		}
		s.Release()
	case <-time.After(5 * time.Second):
		t.Error("Acquire blocked behind a writer that is inside its apply")
	}
	close(resume)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != 1 {
		t.Fatalf("epoch after the held batch = %d, want 1", l.Epoch())
	}
}

// TestPlaneOwnership walks the recycling rules one at a time on the
// four-vertex base (4 edges, so a plane is in reach for minLag patches).
func TestPlaneOwnership(t *testing.T) {
	defer testutil.LeakCheck(t)()
	base := durableBase(t)
	baseFP := graph.Fingerprint(base)
	l := New("test", base, Config{})
	defer l.Close()
	status := func() (copies, recycled, catchup int64) {
		st := l.Status()
		return st.PlaneCopies, st.PlanesRecycled, st.CatchupPatches
	}

	// The base graph is the caller's: epoch 1 copies it, and epoch 2 copies
	// again because epoch 1's plane is the one being read.
	reweight(t, l, 0, 1, 10)
	reweight(t, l, 0, 1, 11)
	if c, r, _ := status(); c != 2 || r != 0 {
		t.Fatalf("first two reweights: %d copies, %d recycled; want 2, 0", c, r)
	}
	// From here two planes ping-pong, each one batch (one patch) behind.
	reweight(t, l, 0, 1, 12)
	reweight(t, l, 0, 2, 13)
	if c, r, p := status(); c != 2 || r != 2 || p != 2 {
		t.Fatalf("ping-pong: %d copies, %d recycled, %d catch-up patches; want 2, 2, 2", c, r, p)
	}

	// A retired plane holds the poison until it is written again: a reader
	// that kept its graph past Release would compute with -1.
	s := l.Acquire()
	stale := s.Graph()
	s.Release()
	reweight(t, l, 1, 2, 14) // takes the free plane; s's plane retires
	for _, w := range stale.Wts {
		if w != -1 {
			t.Fatalf("retired plane reads %v, want the -1 poison", stale.Wts)
		}
	}

	// A pinned epoch keeps its plane out of the list for as long as it is
	// pinned, and comes back with the lag it accumulated.
	pinned := l.Acquire()
	pinnedFP := graph.Fingerprint(pinned.Graph())
	for i := 0; i < 5; i++ {
		reweight(t, l, 2, 0, graph.Weight(20+i))
	}
	if graph.Fingerprint(pinned.Graph()) != pinnedFP {
		t.Fatal("a pinned snapshot's plane was written")
	}
	pinned.Release()
	if got := freePlanes(l); got != 2 {
		t.Fatalf("free planes after a 5-batch pin = %d, want 2 (the ping-pong partner and the returned one)", got)
	}

	// A batch that nets to nothing advances the epoch on the same graph, and
	// a plane two snapshots share is never offered for reuse.
	before := l.Acquire()
	if _, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 3, Dst: 1, W: 9}, {Kind: OpRemove, Src: 3, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	after := l.Acquire()
	if after.Epoch() != before.Epoch()+1 || after.Graph() != before.Graph() {
		t.Fatalf("nets-to-nothing batch: epoch %d -> %d, same graph %v", before.Epoch(), after.Epoch(), after.Graph() == before.Graph())
	}
	free := freePlanes(l)
	before.Release() // last reference of the older of the two sharers
	if got := freePlanes(l); got != free {
		t.Fatal("a plane still read by the current snapshot was retired")
	}
	sharedFP := graph.Fingerprint(after.Graph())
	reweight(t, l, 0, 1, 30)
	reweight(t, l, 0, 1, 31)
	if graph.Fingerprint(after.Graph()) != sharedFP {
		t.Fatal("the shared plane was written while a snapshot still reads it")
	}
	after.Release()

	// A plane further behind than a copy costs is dropped at its release...
	l.planes.mu.Lock()
	l.planes.free = nil
	l.planes.mu.Unlock()
	lagging := l.Acquire()
	for i := 0; i <= minLag+1; i++ {
		reweight(t, l, 0, 2, graph.Weight(40+i%7))
	}
	free = freePlanes(l)
	lagging.Release()
	if got := freePlanes(l); got != free {
		t.Fatalf("a plane %d patches behind joined the free list", minLag+2)
	}
	// ...and one that aged out while waiting in the list is never taken: a
	// pin makes the writer go around it until it is out of reach.
	if got := len(l.planes.log); got > 2*minLag {
		t.Fatalf("patch log grew to %d entries, want at most %d", got, 2*minLag)
	}

	// A topology change starts a new generation: planes laid out for the
	// old one are gone, the splice's own pair is the first of the new.
	old := l.Acquire()
	if _, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 3, Dst: 0, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := freePlanes(l); got != 0 {
		t.Fatalf("%d planes of the previous topology survived a splice", got)
	}
	old.Release()
	if got := freePlanes(l); got != 0 {
		t.Fatal("a plane of the previous topology was retired into the new generation")
	}
	c0, r0, _ := status()
	reweight(t, l, 3, 0, 3) // copies: the splice's pair is current
	reweight(t, l, 3, 0, 4) // recycles the splice's pair
	if c, r, _ := status(); c-c0 != 1 || r-r0 != 1 {
		t.Fatalf("after a splice: %d copies, %d recycled; want 1, 1", c-c0, r-r0)
	}

	// Never more than maxFreePlanes are kept.
	var pins []*Snapshot
	for i := 0; i < maxFreePlanes+3; i++ {
		pins = append(pins, l.Acquire())
		reweight(t, l, 3, 0, graph.Weight(50+i))
	}
	for _, s := range pins {
		s.Release()
	}
	if got := freePlanes(l); got != maxFreePlanes {
		t.Fatalf("free planes = %d, want the cap %d", got, maxFreePlanes)
	}

	s = l.Acquire()
	defer s.Release()
	want := map[[2]graph.VertexID]graph.Weight{{0, 1}: 31, {0, 2}: graph.Weight(40 + (minLag+1)%7), {1, 2}: 14, {2, 0}: 24, {3, 0}: graph.Weight(50 + maxFreePlanes + 2)}
	for e, w := range want {
		if got, ok := weightOf(s.Graph(), e[0], e[1]); !ok || got != w {
			t.Errorf("final weight %d->%d = %d (present %v), want %d", e[0], e[1], got, ok, w)
		}
	}
	if err := graph.Validate(s.Graph()); err != nil {
		t.Error(err)
	}
	if graph.Fingerprint(base) != baseFP {
		t.Error("the caller's base graph was written")
	}
}

// reweightBatches builds n batches of 64 reweights of distinct edges of g.
func reweightBatches(g *graph.Graph, n int) [][]Op {
	edges := g.Edges()
	batches := make([][]Op, n)
	for b := range batches {
		seen := make(map[[2]graph.VertexID]bool, 64)
		for i := 0; len(batches[b]) < 64; i++ {
			e := edges[(b*7919+i*104729)%len(edges)]
			if k := [2]graph.VertexID{e.Src, e.Dst}; !seen[k] {
				seen[k] = true
				batches[b] = append(batches[b], Op{Kind: OpReweight, Src: e.Src, Dst: e.Dst, W: graph.Weight(1 + (b+i)%999)})
			}
		}
	}
	return batches
}

func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReweightSteadyStateAllocs gates the write path's allocation on the
// benchmark's graph (2^17-vertex R-MAT, ~1.5 M edges, 11.8 MB per plane):
// once two planes exist, a 64-reweight batch allocates its delta's worth —
// under 64 KiB — and replaying 200 of them from a WAL allocates two planes.
func TestReweightSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^17-vertex R-MAT")
	}
	defer testutil.LeakCheck(t)()
	g, err := gen.RMAT(gen.DefaultRMAT(17, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	planeBytes := uint64(8 * g.NumEdges())
	batches := reweightBatches(g, 200)

	l := New("social", g, Config{})
	l.planes.poison = false
	apply := func(bs [][]Op) {
		for _, ops := range bs {
			if _, err := l.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(batches[:4]) // two copies, then the ping-pong
	const measured = 100
	if per := allocatedBytes(func() { apply(batches[4 : 4+measured]) }) / measured; per >= 64<<10 {
		t.Errorf("steady-state 64-reweight ApplyBatch allocates %d B, want < 64 KiB", per)
	}
	if st := l.Status(); st.PlaneCopies != 2 || st.PlanesRecycled != 2+measured {
		t.Errorf("%d plane copies, %d recycled after %d batches; want 2 and %d", st.PlaneCopies, st.PlanesRecycled, 4+measured, 2+measured)
	}
	l.Close()

	dir := filepath.Join(t.TempDir(), "social")
	store, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Replay(wal.Pos{}, func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for b, ops := range batches {
		if _, err := store.Append(uint64(b+1), EncodeOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = wal.Open(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	}()
	// Recover's replay loop, on a Live whose poison can be switched off.
	rl := newLive("social", g, 0, Config{})
	defer rl.Close()
	rl.planes.poison = false
	total := allocatedBytes(func() {
		err = store.Replay(wal.Pos{}, func(rec wal.Record) error {
			ops, err := DecodeOps(rec.Payload)
			if err != nil {
				return err
			}
			_, _, _, err = rl.advance(ops, rec.Epoch)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rl.Status()
	if st.Epoch != uint64(len(batches)) || st.PlaneCopies != 2 {
		t.Errorf("replay of %d batches: epoch %d, %d plane copies; want 2 copies", len(batches), st.Epoch, st.PlaneCopies)
	}
	if slack := uint64(len(batches)) * 64 << 10; total > 2*planeBytes+slack {
		t.Errorf("replay of %d batches allocated %d B, want at most two planes (%d B each) and 64 KiB a batch", len(batches), total, planeBytes)
	}
	t.Logf("replay allocated %d B in all (%d B per plane)", total, planeBytes)
}
