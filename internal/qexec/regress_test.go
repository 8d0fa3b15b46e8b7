package qexec

// Regression tests: a panicking group leader poisoning its keys, a lane
// owner's disconnect reaching the lane's other waiters, execute() leaking a
// child context, and admission racing a drain close against a freed slot.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
)

// TestLeaderPanicRecovers proves the window stage survives a group leader
// that panics out of its run: every waiter — requests attached to the
// leader's own lane, a second lane of the same window, and a request
// attached to that lane — gets a fault outcome instead of hanging, the keys
// are unpublished (later callers run fresh), and the panic still propagates
// to the leader's caller.
func TestLeaderPanicRecovers(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	p := newTestPipeline(t, Config{
		Coalesce:      true,
		BatchWindow:   time.Minute, // the second lane seals the window, not the timer
		BatchMaxLanes: 2,
		BaseContext: func(ctx context.Context) context.Context {
			if calls.Add(1) == 1 { // only the first run's leader panics
				close(entered)
				<-release
				panic("boom in run")
			}
			return ctx
		},
	})
	defer mustClose(t, p)
	leaderReq, memberReq := batchReq(0, nil), batchReq(1, nil)

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		p.Do(context.Background(), leaderReq)
	}()
	waitFor(t, "the window to open", func() bool { return p.Status().Batch.Windows == 1 })

	type waiter struct {
		req       Request
		coalesced bool
	}
	waiters := []waiter{{memberReq, false}} // seals the window; the leader starts its run
	outs := make(chan *Outcome, 4)
	launch := func(w waiter) {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out := p.Do(ctx, w.req)
			if out.Coalesced != w.coalesced {
				t.Errorf("src=%d: Coalesced=%v, want %v", w.req.Src, out.Coalesced, w.coalesced)
			}
			outs <- out
		}()
	}
	launch(waiters[0])
	<-entered // the leader is mid-run: both lanes are now only joinable by attaching
	for _, w := range []waiter{{leaderReq, true}, {leaderReq, true}, {memberReq, true}} {
		waiters = append(waiters, w)
		launch(w)
	}
	waitFor(t, "waiters to attach", func() bool { return p.Status().Coalesce.Coalesced == 3 })
	close(release)

	if r := <-leaderPanicked; r == nil {
		t.Fatalf("leader's panic did not propagate")
	}
	for range waiters {
		if out := <-outs; out.Code != CodeFault || !errors.Is(out.Err, ErrFlightAbandoned) {
			t.Errorf("waiter got (%v, %v), want (CodeFault, ErrFlightAbandoned)", out.Code, out.Err)
		}
	}

	// The keys must not stay poisoned: later identical requests open a fresh
	// window and complete normally.
	done := make(chan *Outcome, 2)
	for _, req := range []Request{leaderReq, memberReq} {
		go func(req Request) { done <- p.Do(context.Background(), req) }(req)
	}
	for i := 0; i < 2; i++ {
		select {
		case out := <-done:
			if out.Code != CodeOK || out.Coalesced || out.BatchLanes != 2 {
				t.Fatalf("post-panic request got %+v, want a fresh CodeOK 2-lane run", out)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("post-panic request hung: key still poisoned")
		}
	}
}

// TestCancelledLaneOwnerSparesItsWaiters is the regression test for the
// coalesce × batch bug: B joins A's window as a second lane, C is identical
// to B and attaches to B's lane. When B's caller disconnects, B alone gets
// CodeClientGone — the lane stays, the leader still computes it, and C
// receives B's lane answer. (Before the windows were unified, B was a flight
// leader waiting on its own caller's context as a batch follower, and C was
// handed B's CodeClientGone.)
func TestCancelledLaneOwnerSparesItsWaiters(t *testing.T) {
	g := testGraph(t)
	ref, err := algo.Dijkstra(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	p := newTestPipeline(t, Config{
		Graphs:        map[string]*graphit.Graph{"road": g},
		Coalesce:      true,
		BatchWindow:   time.Minute, // B's join seals the window, not the timer
		BatchMaxLanes: 2,
		RoundTimeout:  time.Minute, // the gate stalls a round on purpose
		DefaultBudget: 30 * time.Second,
		MaxBudget:     time.Minute,
		BaseContext:   gateHook(gate),
	})
	defer mustClose(t, p)
	ids := allVertices(g)

	outs := make([]*Outcome, 3)
	launch := func(i int, ctx context.Context, src uint32) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			outs[i] = p.Do(ctx, batchReq(src, ids))
		}()
		return done
	}
	aDone := launch(0, context.Background(), 0) // A opens the window
	waitFor(t, "A to open the window", func() bool { return p.Status().Batch.Windows == 1 })
	bCtx, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	bDone := launch(1, bCtx, 1) // B fills it; A starts the 2-lane run and parks at the gate
	waitFor(t, "the shared run to start", func() bool { return p.InFlight() == 1 })
	cDone := launch(2, context.Background(), 1) // C attaches to B's lane
	waitFor(t, "C to attach", func() bool { return p.Status().Coalesce.Coalesced == 1 })
	cancelB()
	<-bDone // B has left before the run can finish
	close(gate)
	<-aDone
	<-cDone

	if a := outs[0]; a.Code != CodeOK || a.BatchLanes != 2 {
		t.Errorf("A: %s (%v) BatchLanes=%d, want ok/2", a.Code, a.Err, a.BatchLanes)
	}
	if b := outs[1]; b.Code != CodeClientGone {
		t.Errorf("B: %s (%v), want client_gone for the caller that left", b.Code, b.Err)
	}
	c := outs[2]
	if c.Code != CodeOK || !c.Coalesced || !c.Batched || c.BatchLanes != 2 {
		t.Fatalf("C: %s (%v) Coalesced=%v Batched=%v BatchLanes=%d, want B's lane answer",
			c.Code, c.Err, c.Coalesced, c.Batched, c.BatchLanes)
	}
	wantSummaryValues(t, c, ids, ref)
	if runs := p.Status().Runs; runs != 1 {
		t.Errorf("%d engine runs, want 1", runs)
	}
}

// TestExecuteContextPerPath pins the restructured deadline wiring: both the
// attached and the detached (coalesced-leader) paths hand the engine a
// context carrying the budget deadline, and that context is cancelled once
// execute returns — the shape whose earlier form leaked an extra WithCancel
// child on the attached path (caught by go vet's lostcancel class only
// after the restructure made each path create exactly one child).
func TestExecuteContextPerPath(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		var mu sync.Mutex
		var seen []context.Context
		p := newTestPipeline(t, Config{
			Coalesce: coalesce,
			BaseContext: func(ctx context.Context) context.Context {
				mu.Lock()
				seen = append(seen, ctx)
				mu.Unlock()
				return ctx
			},
		})
		out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: 0, BudgetMS: 30_000})
		if out.Code != CodeOK {
			t.Fatalf("coalesce=%v: query failed: %+v", coalesce, out)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != 1 {
			t.Fatalf("coalesce=%v: BaseContext saw %d contexts, want 1", coalesce, len(seen))
		}
		if _, ok := seen[0].Deadline(); !ok {
			t.Errorf("coalesce=%v: run context carries no budget deadline", coalesce)
		}
		if err := seen[0].Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("coalesce=%v: run context not cancelled after execute returned (err=%v)", coalesce, err)
		}
	}
}

// TestAdmissionDrainQueuedRace: a queued waiter races close() against a
// slot freed during the drain. Before the fix, the select between the
// freed slot and the closed channel chose randomly, admitting the waiter
// mid-drain about half the time; the post-grab re-check makes ErrDraining
// deterministic.
func TestAdmissionDrainQueuedRace(t *testing.T) {
	for i := 0; i < 300; i++ {
		a := newAdmission(1, 1)
		release, err := a.acquire(context.Background())
		if err != nil {
			t.Fatalf("setup acquire: %v", err)
		}
		got := make(chan error, 1)
		go func() {
			_, err := a.acquire(context.Background())
			got <- err
		}()
		waitFor(t, "waiter to queue", func() bool { return a.queued.Load() == 1 })
		a.close()
		release() // a slot frees while draining — must not admit the waiter
		if err := <-got; !errors.Is(err, ErrDraining) {
			t.Fatalf("iter %d: queued waiter got %v after close, want ErrDraining", i, err)
		}
	}
}

// TestAdmitSlotRechecksClosed exercises the fast-path window directly: the
// entry closeFlag load has passed, close() lands, a slot frees, and the
// select grabs it. admitSlot (the code after the grab) must bounce the
// request and return the slot.
func TestAdmitSlotRechecksClosed(t *testing.T) {
	a := newAdmission(1, 1)
	a.close()
	// A slot is free and grabbed exactly as in acquire's fast path.
	<-a.slots
	rel, err := a.admitSlot()
	if !errors.Is(err, ErrDraining) || rel != nil {
		t.Fatalf("admitSlot after close: got (release=%t, %v), want (nil, ErrDraining)", rel != nil, err)
	}
	if len(a.slots) != 1 {
		t.Fatalf("admitSlot did not return the grabbed slot (free=%d)", len(a.slots))
	}
	if got := a.admitted.Load(); got != 0 {
		t.Fatalf("admitSlot counted an admission during drain (admitted=%d)", got)
	}
}

// TestAdmissionDrainStress hammers acquire/release against a concurrent
// close under -race: every path through the re-check must stay race-clean,
// slot accounting must balance (the draining bounce returns the grabbed
// slot), and once everyone has drained no acquire may succeed. The
// deterministic admit-after-close assertions live in the two tests above;
// this one covers the interleavings they pin down, at volume.
func TestAdmissionDrainStress(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		a := newAdmission(2, 4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					rel, err := a.acquire(context.Background())
					if err == nil {
						rel()
					}
					if errors.Is(err, ErrDraining) {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a.close()
		}()
		close(start)
		wg.Wait()
		if free := len(a.slots); free != 2 {
			t.Fatalf("iter %d: slot accounting broken: %d free, want 2", iter, free)
		}
		if _, err := a.acquire(context.Background()); !errors.Is(err, ErrDraining) {
			t.Fatalf("iter %d: acquire after drain: %v, want ErrDraining", iter, err)
		}
	}
}
