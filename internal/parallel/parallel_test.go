package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		hits := make([]int32, n)
		e.ForChunks(n, DefaultGrain, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForChunksWorkerIDsInRange(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	w := e.Workers()
	var bad atomic.Int64
	e.ForChunks(10000, 16, func(lo, hi, worker int) {
		if worker < 0 || worker >= w {
			bad.Add(1)
		}
		if lo >= hi {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d chunk calls had out-of-range workers or empty ranges", bad.Load())
	}
}

func TestRunExecutesEveryWorkerOnce(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	var mu sync.Mutex
	seen := map[int]int{}
	e.Run(func(worker int) {
		mu.Lock()
		seen[worker]++
		mu.Unlock()
	})
	if len(seen) != 4 {
		t.Fatalf("saw %d workers, want 4", len(seen))
	}
	for w, c := range seen {
		if c != 1 {
			t.Errorf("worker %d ran %d times", w, c)
		}
	}
}
