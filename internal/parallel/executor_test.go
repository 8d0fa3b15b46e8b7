package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphit/internal/testutil"
)

// TestExecutorWorkerIDStability: every invocation hands out each worker id
// in [0, w) exactly once, invocation after invocation — the property the
// engine's ups[worker] indexing depends on.
func TestExecutorWorkerIDStability(t *testing.T) {
	const w = 4
	e := NewExecutor(w)
	defer e.Close()
	if e.Workers() != w {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), w)
	}
	for round := 0; round < 50; round++ {
		var hits [w]atomic.Int64
		e.Run(func(worker int) {
			if worker < 0 || worker >= w {
				t.Errorf("round %d: worker id %d out of [0,%d)", round, worker, w)
				return
			}
			hits[worker].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("round %d: worker %d ran %d times, want 1", round, i, got)
			}
		}
	}
}

// TestExecutorReuseAcrossRounds: repeated invocations reuse the parked
// workers — the goroutine count does not grow with invocations.
func TestExecutorReuseAcrossRounds(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	e.Run(func(int) {}) // warm up
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e.ForChunks(10_000, 64, func(lo, hi, worker int) {})
	}
	// A tolerance of a few absorbs unrelated runtime goroutines; per-round
	// spawning would add hundreds.
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Errorf("goroutines grew from %d to %d across 200 rounds", before, after)
	}
}

// TestExecutorForChunksCoverage: dynamic chunking visits every index exactly
// once with in-range worker ids.
func TestExecutorForChunksCoverage(t *testing.T) {
	const n = 10_000
	e := NewExecutor(5)
	defer e.Close()
	visits := make([]atomic.Int32, n)
	e.ForChunks(n, 7, func(lo, hi, worker int) {
		if worker < 0 || worker >= 5 {
			t.Errorf("worker id %d out of range", worker)
		}
		for i := lo; i < hi; i++ {
			visits[i].Add(1)
		}
	})
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestExecutorCloseSemantics: Close is idempotent, and invocations after
// Close still complete correctly by falling back to transient goroutines.
func TestExecutorCloseSemantics(t *testing.T) {
	e := NewExecutor(4)
	e.Close()
	e.Close() // idempotent
	var hits [4]atomic.Int64
	e.Run(func(worker int) { hits[worker].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("after Close: worker %d ran %d times, want 1", i, got)
		}
	}
	if e.Workers() != 4 {
		t.Errorf("Workers() changed after Close: %d", e.Workers())
	}
}

// TestExecutorConcurrentInvocations: callers racing for the same executor
// all complete with full worker coverage (the loser degrades to transient
// goroutines rather than deadlocking or corrupting the pooled dispatch).
func TestExecutorConcurrentInvocations(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var count atomic.Int64
				e.Run(func(worker int) { count.Add(1) })
				if count.Load() != 4 {
					t.Errorf("concurrent Run saw %d workers, want 4", count.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecutorNestedInvocation: a loop body that re-enters its own executor
// must not deadlock; the nested call runs on transient goroutines.
func TestExecutorNestedInvocation(t *testing.T) {
	e := NewExecutor(3)
	defer e.Close()
	var inner atomic.Int64
	e.Run(func(worker int) {
		e.Run(func(int) { inner.Add(1) })
	})
	if inner.Load() != 9 {
		t.Errorf("nested Run bodies ran %d times, want 9", inner.Load())
	}
}

// mustPanic runs fn, requires it to panic with a *Panic, and returns it.
func mustPanic(t *testing.T, fn func()) *Panic {
	t.Helper()
	var got *Panic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic propagated to the caller")
			}
			p, ok := r.(*Panic)
			if !ok {
				t.Fatalf("panic value is %T, want *Panic", r)
			}
			got = p
		}()
		fn()
	}()
	return got
}

// TestExecutorRunPanicContained: a panic in a Run body is re-raised on the
// caller as a *Panic with the original value and a non-empty stack, and the
// executor remains fully usable afterwards (the pre-fix behavior stranded
// the invocation lock, degrading every later call to transient goroutines).
func TestExecutorRunPanicContained(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	p := mustPanic(t, func() {
		e.Run(func(worker int) {
			if worker == 2 {
				panic("boom")
			}
		})
	})
	if p.Value != "boom" {
		t.Errorf("Panic.Value = %v, want boom", p.Value)
	}
	if p.Worker != 2 {
		t.Errorf("Panic.Worker = %d, want 2", p.Worker)
	}
	if len(p.Stack) == 0 {
		t.Error("Panic.Stack is empty")
	}
	// The executor must still run pooled invocations correctly.
	for round := 0; round < 10; round++ {
		var hits [4]atomic.Int64
		e.Run(func(worker int) { hits[worker].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("post-panic round %d: worker %d ran %d times", round, i, got)
			}
		}
	}
}

// TestExecutorPanicAllWorkers: every worker panicking at once still joins
// cleanly and surfaces exactly one panic.
func TestExecutorPanicAllWorkers(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	for round := 0; round < 20; round++ {
		p := mustPanic(t, func() {
			e.Run(func(worker int) { panic(worker) })
		})
		if _, ok := p.Value.(int); !ok {
			t.Fatalf("Panic.Value = %v (%T), want a worker id", p.Value, p.Value)
		}
	}
}

// TestExecutorForChunksPanicAborts: a panicking chunk reaches the caller as
// a *Panic carrying the original value, the faulting worker's id and a stack
// that names the faulting frame, and the executor's next invocation still
// covers every index. Stopping the sibling chunks is the caller's job: the
// engine's traversals check their run control at each chunk.
func TestExecutorForChunksPanicAborts(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	const n = 1 << 12
	faulted := -1
	p := mustPanic(t, func() {
		e.ForChunks(n, 16, func(lo, hi, worker int) {
			if lo == 0 {
				faulted = worker
				chunkFault()
			}
		})
	})
	if p.Value != "chunk fault" {
		t.Errorf("Panic.Value = %v", p.Value)
	}
	if p.Worker != faulted {
		t.Errorf("Panic.Worker = %d, chunk 0 ran on worker %d", p.Worker, faulted)
	}
	if !strings.Contains(string(p.Stack), "chunkFault") {
		t.Errorf("Panic.Stack does not name the faulting frame:\n%s", p.Stack)
	}
	var count atomic.Int64
	e.ForChunks(1000, 7, func(lo, hi, _ int) { count.Add(int64(hi - lo)) })
	if count.Load() != 1000 {
		t.Errorf("post-panic ForChunks covered %d of 1000", count.Load())
	}
}

//go:noinline
func chunkFault() { panic("chunk fault") }

// TestExecutorPanicTransientFallback: panics are contained on the transient
// (spawnRun) path too — both via a closed executor and via nesting.
func TestExecutorPanicTransientFallback(t *testing.T) {
	e := NewExecutor(3)
	e.Close()
	p := mustPanic(t, func() {
		e.Run(func(worker int) { panic("transient") })
	})
	if p.Value != "transient" {
		t.Errorf("Panic.Value = %v", p.Value)
	}

	nested := NewExecutor(3)
	defer nested.Close()
	p = mustPanic(t, func() {
		nested.Run(func(worker int) {
			if worker == 0 {
				nested.Run(func(int) { panic("inner") })
			}
		})
	})
	if p.Value != "inner" {
		t.Errorf("nested Panic.Value = %v", p.Value)
	}
}

// TestReleaseAfterPanic: an executor whose invocation panicked is still
// pool-safe — Release pools it and the next Acquire reuses it.
func TestReleaseAfterPanic(t *testing.T) {
	CloseIdle() // isolate from executors pooled by other tests
	e := Acquire(3)
	mustPanic(t, func() {
		e.Run(func(int) { panic("pooled fault") })
	})
	Release(e)
	got := Acquire(3)
	if got != e {
		t.Error("executor was not pooled after a contained panic")
	}
	var count atomic.Int64
	got.Run(func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("reacquired executor ran %d workers, want 3", count.Load())
	}
	Release(got)
}

// TestCloseIdle: draining the pool leaves later Acquire calls working
// (constructed on demand) and does not touch checked-out executors.
func TestCloseIdle(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	busy := Acquire(4)
	idle := Acquire(4)
	Release(idle)
	CloseIdle()
	fresh := Acquire(4)
	if fresh == idle {
		t.Error("CloseIdle left an idle executor in the pool")
	}
	var count atomic.Int64
	busy.Run(func(int) { count.Add(1) })
	if count.Load() != 4 {
		t.Errorf("checked-out executor ran %d workers after CloseIdle, want 4", count.Load())
	}
	Release(busy)
	var hits atomic.Int64
	fresh.Run(func(int) { hits.Add(1) })
	if hits.Load() != 4 {
		t.Errorf("executor acquired after CloseIdle ran %d workers, want 4", hits.Load())
	}
	Release(fresh)
}

// TestAcquireReleaseReuse: the executor pool hands a released executor back
// to the next acquirer of the same count, and sizes from GOMAXPROCS when the
// requested count is non-positive.
func TestAcquireReleaseReuse(t *testing.T) {
	a := Acquire(3)
	if a.Workers() != 3 {
		t.Fatalf("Acquire(3).Workers() = %d", a.Workers())
	}
	Release(a)
	b := Acquire(3)
	if a != b {
		t.Error("Acquire after Release did not reuse the pooled executor")
	}
	Release(b)

	c := Acquire(0)
	if want := runtime.GOMAXPROCS(0); c.Workers() != want {
		t.Errorf("Acquire(0) sized %d workers, want GOMAXPROCS = %d", c.Workers(), want)
	}
	Release(c)

	// A closed executor must not be pooled.
	d := NewExecutor(3)
	d.Close()
	Release(d)
	if got := Acquire(3); got == d {
		t.Error("Release pooled a closed executor")
	}
}
