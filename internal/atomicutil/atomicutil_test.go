package atomicutil

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteMinSequential(t *testing.T) {
	x := int64(10)
	if !WriteMin(&x, 5) || x != 5 {
		t.Fatalf("WriteMin(10, 5) failed: x=%d", x)
	}
	if WriteMin(&x, 7) || x != 5 {
		t.Fatalf("WriteMin must not raise: x=%d", x)
	}
	if WriteMin(&x, 5) {
		t.Fatal("equal value must not win")
	}
}

func TestWriteMaxSequential(t *testing.T) {
	x := int64(10)
	if !WriteMax(&x, 15) || x != 15 {
		t.Fatalf("WriteMax(10, 15) failed: x=%d", x)
	}
	if WriteMax(&x, 7) || x != 15 {
		t.Fatalf("WriteMax must not lower: x=%d", x)
	}
}

// TestWriteMinConcurrent: under contention, the final value is the global
// minimum and exactly the writes that lowered the value report success.
func TestWriteMinConcurrent(t *testing.T) {
	x := int64(1 << 40)
	const workers = 8
	const perWorker = 1000
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < perWorker; i++ {
				v := int64((w*perWorker+i)*7919%100000 + 1)
				if WriteMin(&x, v) {
					local++
				}
			}
			mu.Lock()
			wins += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	min := int64(1 << 40)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			v := int64((w*perWorker+i)*7919%100000 + 1)
			if v < min {
				min = v
			}
		}
	}
	if x != min {
		t.Fatalf("final = %d, want global min %d", x, min)
	}
	if wins == 0 {
		t.Fatal("no write ever won")
	}
}

func TestAddClampedProperties(t *testing.T) {
	f := func(start, delta, floor int64) bool {
		// Constrain to avoid overflow.
		start %= 1 << 30
		delta %= 1 << 20
		floor %= 1 << 30
		x := start
		next, changed := AddClamped(&x, delta, floor)
		want := start + delta
		if want < floor {
			want = floor
		}
		return x == want && next == want && changed == (want != start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAddClampedConcurrentNeverBelowFloor(t *testing.T) {
	x := int64(100)
	const floor = 42
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				AddClamped(&x, -1, floor)
			}
		}()
	}
	wg.Wait()
	if x != floor {
		t.Fatalf("x = %d, want clamped at %d", x, floor)
	}
}

func TestFlagsTrySetExactlyOnce(t *testing.T) {
	f := NewFlags(100)
	const workers = 8
	winners := make([][]uint32, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for v := uint32(0); v < 100; v++ {
				if f.TrySet(v) {
					winners[w] = append(winners[w], v)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, ws := range winners {
		total += len(ws)
	}
	if total != 100 {
		t.Fatalf("%d wins across workers, want exactly 100", total)
	}
	for v := uint32(0); v < 100; v++ {
		if !f.IsSet(v) {
			t.Fatalf("flag %d not set", v)
		}
	}
}

func TestFlagsResetList(t *testing.T) {
	f := NewFlags(10)
	for v := uint32(0); v < 10; v++ {
		f.TrySet(v)
	}
	f.ResetList([]uint32{1, 3, 5})
	for v := uint32(0); v < 10; v++ {
		want := v != 1 && v != 3 && v != 5
		if f.IsSet(v) != want {
			t.Fatalf("flag %d: set=%v, want %v", v, f.IsSet(v), want)
		}
	}
}
