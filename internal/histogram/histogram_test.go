package histogram

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCountsSequential(t *testing.T) {
	c := New(10, 1)
	for i := 0; i < 5; i++ {
		c.Add(3, 0)
	}
	c.Add(7, 0)
	if c.Touched() != 2 {
		t.Fatalf("Touched = %d", c.Touched())
	}
	got := map[uint32]int64{}
	c.Drain(func(v uint32, n int64) { got[v] = n })
	if got[3] != 5 || got[7] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestDrainResets(t *testing.T) {
	c := New(4, 2)
	c.Add(1, 1)
	c.Drain(func(uint32, int64) {})
	if c.Touched() != 0 {
		t.Fatal("touched not reset")
	}
	c.Add(1, 0)
	c.Add(1, 1)
	var n int64
	calls := 0
	c.Drain(func(v uint32, count int64) { n, calls = count, calls+1 })
	if n != 2 || calls != 1 {
		t.Fatalf("after reset: %d calls, count %d; want 1 call, count 2 (stale state leaked)", calls, n)
	}
}

// TestAddConcurrentFirstTouch runs w goroutines as workers 0..w-1 over
// overlapping, hub-skewed vertex sets for several rounds: the add that makes
// a vertex's first touch must land it on exactly one worker's list, so Drain
// yields every touched vertex exactly once, with its exact total, and
// nothing else.
func TestAddConcurrentFirstTouch(t *testing.T) {
	const n, workers, per, rounds = 512, 8, 4000, 5
	c := New(n, workers)
	for round := 0; round < rounds; round++ {
		want := make([]int64, n)
		targets := make([][]uint32, workers)
		for w := range targets {
			for i := 0; i < per; i++ {
				var v uint32
				switch {
				case i%2 == 0:
					v = uint32(i % 4) // hubs every worker hits
				case i%3 == 0:
					v = uint32((i*7 + round) % n) // shared by all workers
				default:
					v = uint32((w*61 + i*13 + round) % n) // worker-skewed
				}
				targets[w] = append(targets[w], v)
				want[v]++
			}
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for _, v := range targets[w] {
					c.Add(v, w)
				}
			}(w)
		}
		wg.Wait()
		got := make([]int64, n)
		calls := make([]int, n)
		c.Drain(func(v uint32, count int64) {
			got[v] = count
			calls[v]++
		})
		for v := range want {
			wantCalls := 0
			if want[v] > 0 {
				wantCalls = 1
			}
			if calls[v] != wantCalls || got[v] != want[v] {
				t.Fatalf("round %d: vertex %d drained %d times with count %d, want %d times with %d",
					round, v, calls[v], got[v], wantCalls, want[v])
			}
		}
	}
}

// Property: Drain reproduces exactly the multiset of Adds.
func TestCountsMatchReference(t *testing.T) {
	f := func(vs []uint32) bool {
		c := New(256, 3)
		want := map[uint32]int64{}
		for i, v := range vs {
			v %= 256
			c.Add(v, i%3)
			want[v]++
		}
		got := map[uint32]int64{}
		c.Drain(func(v uint32, n int64) { got[v] = n })
		if len(got) != len(want) {
			return false
		}
		for v, n := range want {
			if got[v] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
