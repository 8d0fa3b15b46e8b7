package core

import (
	"context"
	"testing"

	"graphit/internal/parallel"
)

// warmEngine runs op to completion on a single-worker engine and hands the
// engine back with the warm-up run's stats and a frontier to replay: the
// priorities are converged, so
// replaying a round on that frontier exercises the full steady-state round
// machinery (dense map, sweep, filters, collection) without winning any
// update.
func warmEngine(t *testing.T, op *Ordered) (*engine, Stats, []uint32) {
	t.Helper()
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
	if st.Rounds == 0 {
		t.Fatal("warmup run made no rounds")
	}
	frontier := make([]uint32, 64)
	for i := range frontier {
		frontier[i] = uint32(i * 7)
	}
	return e, st, frontier
}

// warmSSSP warms an SSSP engine on a 4000-vertex path under strategy s
// and direction dir, with the UDF operator or the native MinPlus one.
func warmSSSP(t *testing.T, s Strategy, dir Direction, minPlus bool) (*engine, Stats, []uint32) {
	t.Helper()
	g := lineGraph(t, 4000)
	cfg := DefaultConfig()
	cfg.Strategy = s
	cfg.Direction = dir
	cfg.Delta = 8
	cfg.Workers = 1
	op, _ := ssspOp(g, 0, cfg)
	if minPlus {
		op, _ = minPlusOp(g, 0, cfg)
	}
	return warmEngine(t, op)
}

// replayAllocs replays one round of tr on frontier and reports its
// allocations per round.
func replayAllocs(tr traversal, frontier []uint32) float64 {
	return testing.AllocsPerRun(100, func() {
		tr.relax(1, 8, frontier)
	})
}

// TestLazyPullSteadyStateAllocs: a warmed-up DensePull round — dense
// frontier set/clear, the full in-edge sweep, and the concatenation of the
// per-worker changed lists — performs zero heap allocation.
func TestLazyPullSteadyStateAllocs(t *testing.T) {
	e, _, frontier := warmSSSP(t, Lazy, DensePull, false)
	tr, ok := e.pull.(*pullTrav)
	if !ok {
		t.Fatalf("expected *pullTrav, got %T", e.pull)
	}
	if allocs := replayAllocs(tr, frontier); allocs != 0 {
		t.Errorf("steady-state pull round allocates %.0f times, want 0", allocs)
	}
}

// TestLazyPushSteadyStateAllocs: the SparsePush counterpart — per-worker
// update buffers and the update collection all reuse run-owned scratch.
func TestLazyPushSteadyStateAllocs(t *testing.T) {
	e, _, frontier := warmSSSP(t, Lazy, SparsePush, false)
	tr, ok := e.push.(*pushTrav)
	if !ok {
		t.Fatalf("expected *pushTrav, got %T", e.push)
	}
	if allocs := replayAllocs(tr, frontier); allocs != 0 {
		t.Errorf("steady-state push round allocates %.0f times, want 0", allocs)
	}
}

// TestEagerPullSteadyStateAllocs: a warmed eager DensePull round — the
// stale-filtered mark, the prebuilt in-edge sweep body with the native
// MinPlus operator, and the clear — performs zero heap allocation.
func TestEagerPullSteadyStateAllocs(t *testing.T) {
	e, _, frontier := warmSSSP(t, EagerNoFusion, DensePull, true)
	tr, ok := e.pull.(*pullTrav)
	if !ok || !tr.filter {
		t.Fatalf("expected a filtering *pullTrav, got %T", e.pull)
	}
	if allocs := replayAllocs(tr, frontier); allocs != 0 {
		t.Errorf("steady-state eager pull round allocates %.0f times, want 0", allocs)
	}
	if e.ups[0].relaxations == 0 {
		t.Error("replayed rounds relaxed no edges")
	}
}

// TestEagerMinPlusSteadyStateAllocs: a warmed eager-fusion push round with
// the native MinPlus operator — the prebuilt sweep body, the stale filter,
// the per-edge compare and the fusion check — performs zero heap allocation.
// Priorities are converged, so every relaxation loses and bucket 1 admits
// every replayed vertex at or past it.
func TestEagerMinPlusSteadyStateAllocs(t *testing.T) {
	e, st, frontier := warmSSSP(t, EagerWithFusion, SparsePush, true)
	if st.FusedRounds == 0 {
		t.Fatal("warmup run fused no rounds")
	}
	tr, ok := e.push.(*pushTrav)
	if !ok || !tr.fusion {
		t.Fatalf("expected a fusing *pushTrav, got %T", e.push)
	}
	if allocs := replayAllocs(tr, frontier); allocs != 0 {
		t.Errorf("steady-state eager MinPlus round allocates %.0f times, want 0", allocs)
	}
	if e.ups[0].relaxations == 0 {
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
	tr, ok := e.push.(*constSumTrav)
	if !ok {
		t.Fatalf("expected *constSumTrav, got %T", e.push)
	}
	frontier := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	if updated, aborted := tr.relax(0, 0, frontier); aborted || len(updated) == 0 {
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
