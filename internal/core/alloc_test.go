package core

import (
	"context"
	"testing"

	"graphit/internal/parallel"
)

// warmLazyEngine runs an SSSP to completion on a single-worker lazy engine
// and hands back its traversal plus a frontier to replay: the priorities are
// converged, so replaying relax on that frontier exercises the full
// steady-state round machinery (dense map, sweep, collection, dedup reset)
// without winning any update.
func warmLazyEngine(t *testing.T, dir Direction) (*lazyTrav, []uint32) {
	t.Helper()
	g := lineGraph(t, 4000)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Direction = dir
	cfg.Delta = 8
	cfg.Workers = 1
	op, _ := ssspOp(g, 0, cfg)
	op.Cfg.normalize()
	if err := op.validate(); err != nil {
		t.Fatal(err)
	}
	active, err := op.initialActive()
	if err != nil {
		t.Fatal(err)
	}
	ex := parallel.NewExecutor(1)
	sc := new(scratch)
	ctl := &runCtl{}
	e := op.buildEngine(sc, ex, active, ctl)
	var st Stats
	if err := e.run(context.Background(), NopTracer{}, false, &st); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	if st.Rounds == 0 {
		t.Fatal("warmup run made no rounds")
	}
	tr, ok := e.trav.(*lazyTrav)
	if !ok {
		t.Fatalf("expected *lazyTrav, got %T", e.trav)
	}
	frontier := make([]uint32, 64)
	for i := range frontier {
		frontier[i] = uint32(i * 7)
	}
	return tr, frontier
}

// TestLazyPullSteadyStateAllocs: a warmed-up DensePull round — dense
// frontier set/clear, the full in-edge sweep, and the concatenation of the
// per-worker changed lists — performs zero heap allocation.
func TestLazyPullSteadyStateAllocs(t *testing.T) {
	tr, frontier := warmLazyEngine(t, DensePull)
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(1, 8, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state pull round allocates %.0f times, want 0", allocs)
	}
}

// TestLazyPushSteadyStateAllocs: the SparsePush counterpart — per-worker
// update buffers, CAS dedup reset, and the update collection all reuse
// run-owned scratch.
func TestLazyPushSteadyStateAllocs(t *testing.T) {
	tr, frontier := warmLazyEngine(t, SparsePush)
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(1, 8, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state push round allocates %.0f times, want 0", allocs)
	}
}

// TestEagerMinPlusSteadyStateAllocs: a warmed eager-fusion push round with
// the native MinPlus operator — the prebuilt sweep body, the stale filter,
// the per-edge compare and the fusion check — performs zero heap allocation.
// Priorities are converged, so every relaxation loses and bucket 0 admits
// the whole replayed frontier.
func TestEagerMinPlusSteadyStateAllocs(t *testing.T) {
	g := lineGraph(t, 4000)
	cfg := DefaultConfig()
	cfg.Delta = 8
	cfg.Workers = 1
	op, _ := minPlusOp(g, 0, cfg)
	op.Cfg.normalize()
	if err := op.validate(); err != nil {
		t.Fatal(err)
	}
	active, err := op.initialActive()
	if err != nil {
		t.Fatal(err)
	}
	e := op.buildEngine(new(scratch), parallel.NewExecutor(1), active, &runCtl{})
	var st Stats
	if err := e.run(context.Background(), NopTracer{}, false, &st); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	if st.FusedRounds == 0 {
		t.Fatal("warmup run fused no rounds")
	}
	tr, ok := e.trav.(*eagerPush)
	if !ok || !tr.fusion {
		t.Fatalf("expected a fusing *eagerPush, got %T", e.trav)
	}
	frontier := make([]uint32, 64)
	for i := range frontier {
		frontier[i] = uint32(i * 7)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(0, 0, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state eager MinPlus round allocates %.0f times, want 0", allocs)
	}
	if got := e.ups[0].relaxations; got == 0 {
		t.Error("replayed rounds relaxed no edges")
	}
}

// TestConstSumSteadyStateAllocs: a warmed lazy_constant_sum round — the
// prebuilt counting body, the per-worker touched lists, Drain and the
// transformed UDF — performs zero heap allocation. The replayed frontier is
// fixed and the floor is 0, so each replay re-counts the same destinations
// and drains them (moving any still above 0 further down) without growing
// a buffer past the warm round's size.
func TestConstSumSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = LazyConstantSum
	cfg.Workers = 1
	op, _ := kcoreOp(t, 7, cfg)
	op.Cfg.normalize()
	if err := op.validate(); err != nil {
		t.Fatal(err)
	}
	active, err := op.initialActive()
	if err != nil {
		t.Fatal(err)
	}
	e := op.buildEngine(new(scratch), parallel.NewExecutor(1), active, &runCtl{})
	tr, ok := e.trav.(*constSumTrav)
	if !ok {
		t.Fatalf("expected *constSumTrav, got %T", e.trav)
	}
	frontier := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	if updated, _, aborted := tr.relax(0, 0, frontier); aborted || len(updated) == 0 {
		t.Fatalf("warm round: %d updated, aborted=%v; want a completed round that moves priorities", len(updated), aborted)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(0, 0, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state constant-sum round allocates %.0f times, want 0", allocs)
	}
	if e.ups[0].relaxations == 0 {
		t.Error("replayed rounds counted no edges")
	}
}
