package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		hits := make([]int32, n)
		e.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
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

func TestForStaticPartitionsDisjointly(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	n := 1001
	hits := make([]int32, n)
	e.ForStatic(n, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
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

func TestPrefixSumMatchesSerial(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	f := func(xs []int64) bool {
		a := make([]int64, len(xs))
		copy(a, xs)
		bSlice := make([]int64, len(xs))
		copy(bSlice, xs)
		gotTotal := e.PrefixSum(a)
		var sum int64
		for i, x := range bSlice {
			bSlice[i] = sum
			sum += x
		}
		if gotTotal != sum {
			return false
		}
		for i := range a {
			if a[i] != bSlice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrefixSumLargeParallel(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	n := 1 << 16
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	var want int64
	wantAt := make([]int64, n)
	for i := range xs {
		wantAt[i] = want
		want += xs[i]
	}
	got := e.PrefixSum(xs)
	if got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	for i := range xs {
		if xs[i] != wantAt[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, xs[i], wantAt[i])
		}
	}
}
