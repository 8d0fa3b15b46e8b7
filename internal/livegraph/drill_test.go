package livegraph_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/faults"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// TestConcurrentMutateQueryCompactDrill is the torn-read drill, meant to
// run under -race: queries hammer SSSP while mutators batch edge changes —
// so weight planes are retired, poisoned with -1 (test binaries do that)
// and written again all the time — and a hammer calls CompactNow with
// panics injected on a pseudo-random subset of attempts.
//
// Invariants checked on every query:
//   - the pinned snapshot's result is byte-identical to running the same
//     query on a deep frozen copy of that snapshot (no torn reads);
//   - the snapshot's array fingerprint is unchanged across the run
//     (nothing wrote to a pinned epoch's memory);
//   - no weight it read and no distance it computed is negative (no plane
//     was recycled under a reader).
//
// And at the end:
//   - every snapshot was reclaimed exactly when its last holder released
//     it (active count hits zero, reclaim count == snapshots created);
//   - injected compaction panics were contained (failures counted, serving
//     never disrupted) and a later CompactNow succeeded;
//   - the final graph matches the deterministic net effect of all batches.
func TestConcurrentMutateQueryCompactDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("drill is several seconds long")
	}
	defer testutil.LeakCheck(t, parallel.CloseIdle)()

	// Base graph: a ring with random chords so everything is reachable and
	// distances are interesting. Mutators own the chord weights out of
	// vertices 100..139, split into disjoint per-mutator ranges; queries
	// run from source 0.
	const n = 160
	rng := rand.New(rand.NewSource(42))
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: 10})
	}
	for i := 0; i < 300; i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d || s >= 100 {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), W: graph.Weight(1 + rng.Intn(50))})
	}
	base, err := graph.Build(edges, graph.BuildOptions{
		NumVertices: n, Weighted: true, InEdges: true, RemoveDuplicates: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var reclaims atomic.Int64
	inj := faults.New(faults.SeededPanic(livegraph.PhaseCompactBuild, 99, 3, "drill: injected compaction panic"))
	baseFP := graph.Fingerprint(base)
	l := livegraph.New("drill", base, livegraph.Config{
		FaultHook: inj.Hook(),
		OnReclaim: func(uint64) { reclaims.Add(1) },
	})
	defer l.Close() // idempotent; the happy path closes explicitly below

	const (
		mutators  = 4
		batches   = 40  // per mutator
		reweights = 240 // batches of the weight-only mutator
		queriers  = 4
		pairsEach = 6
		epochs    = mutators*batches + reweights
	)
	stop := make(chan struct{})
	errs := make(chan error, mutators+queriers+2)
	var wg sync.WaitGroup

	// Mutators: each owns pairsEach (src, dst) pairs nobody else touches
	// and cycles them through add → reweight → remove.
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			srcBase := graph.VertexID(100 + 10*m)
			for b := 0; b < batches; b++ {
				var ops []livegraph.Op
				for p := 0; p < pairsEach; p++ {
					src, dst := srcBase+graph.VertexID(p), graph.VertexID((m*17+p*29)%90)
					switch b % 3 {
					case 0:
						ops = append(ops, livegraph.Op{Kind: livegraph.OpAdd, Src: src, Dst: dst, W: graph.Weight(1 + b%7)})
					case 1:
						ops = append(ops, livegraph.Op{Kind: livegraph.OpReweight, Src: src, Dst: dst, W: graph.Weight(1 + b%11)})
					case 2:
						ops = append(ops, livegraph.Op{Kind: livegraph.OpRemove, Src: src, Dst: dst})
					}
				}
				if _, err := l.ApplyBatch(ops); err != nil {
					errs <- fmt.Errorf("mutator %d batch %d: %w", m, b, err)
					return
				}
			}
		}(m)
	}

	// One more mutator only reweights — ring edges out of 140..159, which
	// nobody else touches — so runs of weight-only batches recycle planes
	// between the topology changes above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < reweights; b++ {
			var ops []livegraph.Op
			for v := 140 + b%4; v < n; v += 4 {
				ops = append(ops, livegraph.Op{Kind: livegraph.OpReweight, Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: graph.Weight(1 + b%20)})
			}
			if _, err := l.ApplyBatch(ops); err != nil {
				errs <- fmt.Errorf("reweighter batch %d: %w", b, err)
				return
			}
		}
	}()

	// Queriers: pin, freeze, run both, byte-compare.
	sched := graphit.DefaultSchedule()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := l.Acquire()
				if s == nil {
					errs <- fmt.Errorf("querier %d: Acquire returned nil while serving", q)
					return
				}
				fpBefore := graph.Fingerprint(s.Graph())
				frozen := graph.Clone(s.Graph())
				got, err := algo.SSSP(s.Graph(), 0, sched)
				if err != nil {
					errs <- fmt.Errorf("querier %d iter %d (epoch %d): %w", q, i, s.Epoch(), err)
					s.Release()
					return
				}
				want, err := algo.SSSP(frozen, 0, sched)
				if err != nil {
					errs <- fmt.Errorf("querier %d iter %d frozen copy: %w", q, i, err)
					s.Release()
					return
				}
				if len(got.Dist) != len(want.Dist) {
					errs <- fmt.Errorf("querier %d iter %d: dist length %d vs frozen %d", q, i, len(got.Dist), len(want.Dist))
					s.Release()
					return
				}
				for _, w := range s.Graph().Wts {
					if w < 0 {
						errs <- fmt.Errorf("querier %d iter %d epoch %d: pinned snapshot holds weight %d — its plane was recycled under it", q, i, s.Epoch(), w)
						s.Release()
						return
					}
				}
				for v := range got.Dist {
					if got.Dist[v] < 0 {
						errs <- fmt.Errorf("querier %d iter %d epoch %d: dist[%d] = %d — computed from a negative weight", q, i, s.Epoch(), v, got.Dist[v])
						s.Release()
						return
					}
					if got.Dist[v] != want.Dist[v] {
						errs <- fmt.Errorf("querier %d iter %d epoch %d: dist[%d] = %d, frozen copy %d — torn read",
							q, i, s.Epoch(), v, got.Dist[v], want.Dist[v])
						s.Release()
						return
					}
				}
				if fp := graph.Fingerprint(s.Graph()); fp != fpBefore {
					errs <- fmt.Errorf("querier %d iter %d epoch %d: pinned snapshot arrays changed under the query",
						q, i, s.Epoch())
					s.Release()
					return
				}
				s.Release()
			}
		}(q)
	}

	// One goroutine forcing extra synchronous compactions into the mix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			// Errors here are expected: this races the injected panics.
			_ = l.CompactNow()
		}
	}()

	// Let mutators finish, then stop the readers.
	mutatorsDone := make(chan struct{})
	go func() {
		// The first mutators+0 goroutines are the mutators; reuse wg is not
		// separable, so watch the epoch instead: it stops advancing when
		// every batch has landed.
		for l.Epoch() < epochs {
			select {
			case <-stop: // a worker failed; the main goroutine is bailing
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		close(mutatorsDone)
	}()
	select {
	case <-mutatorsDone:
	case err := <-errs:
		close(stop)
		wg.Wait()
		l.Close()
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		wg.Wait()
		l.Close()
		t.Fatal("drill timed out waiting for mutators")
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		l.Close()
		t.Fatal(err)
	default:
	}

	// Quiesce: a final clean rebuild must succeed even though injected
	// panics keep firing on a subset of attempts, so allow a few.
	var ferr error
	for attempt := 0; attempt < 10; attempt++ {
		if ferr = l.CompactNow(); ferr == nil {
			break
		}
	}
	if ferr != nil {
		t.Fatalf("final compaction never succeeded: %v", ferr)
	}

	st := l.Status()
	if st.Epoch != epochs {
		t.Errorf("epoch = %d, want %d", st.Epoch, epochs)
	}
	if st.PlanesRecycled == 0 {
		t.Error("no weight plane was ever recycled — drill lost its reuse pressure")
	}
	if graph.Fingerprint(base) != baseFP {
		t.Error("the caller's base graph was written")
	}
	if st.Compactions < 1 {
		t.Error("no compaction succeeded during the drill")
	}
	if st.CompactionFailures < 1 {
		t.Error("injected panics never fired — drill lost its fault pressure")
	}

	// Final content check: batches%3 cycles ended on b=39 ≡ 0 (mod 3)...
	// per-pair last op is b=39 → 39%3=0 → add with weight 1+39%7=5? No:
	// the LAST batch is b=39, 39%3 == 0 → OpAdd. So every owned pair must
	// exist with weight 1+39%7 = 1+4 = 5.
	s := l.Acquire()
	for m := 0; m < mutators; m++ {
		srcBase := graph.VertexID(100 + 10*m)
		for p := 0; p < pairsEach; p++ {
			src, dst := srcBase+graph.VertexID(p), graph.VertexID((m*17+p*29)%90)
			found := false
			ws := s.Graph().OutWts(src)
			for i, d := range s.Graph().OutNeigh(src) {
				if d == dst {
					found = true
					if ws[i] != 5 {
						t.Errorf("final weight %d->%d = %d, want 5", src, dst, ws[i])
					}
				}
			}
			if !found {
				t.Errorf("final graph missing %d->%d", src, dst)
			}
		}
	}
	if err := graph.Validate(s.Graph()); err != nil {
		t.Error(err)
	}
	s.Release()

	l.Close()
	// Reclamation exactness: once closed and every handle released, no
	// snapshot may remain active, and Close must be what reclaimed the
	// last one.
	if st := l.Status(); st.ActiveSnapshots != 0 {
		t.Errorf("active snapshots after close = %d, want 0", st.ActiveSnapshots)
	}
	if reclaims.Load() == 0 {
		t.Error("no snapshot was ever reclaimed")
	}
}
