package histogram

import (
	"sync"
	"testing"
	"testing/quick"
)

// drainAll seals the round's counting workers and drains every owner of c,
// failing the test if a vertex is reported twice, and returns the reported
// totals.
func drainAll(t *testing.T, c *Counter, counting int) map[uint32]int64 {
	t.Helper()
	for w := 0; w < counting; w++ {
		c.Seal(w)
	}
	got := map[uint32]int64{}
	for o := 0; o < counting; o++ {
		c.Drain(o, func(v uint32, n int64) {
			if _, dup := got[v]; dup {
				t.Fatalf("vertex %d drained twice", v)
			}
			got[v] = n
		})
	}
	return got
}

func TestCountsSequential(t *testing.T) {
	c := New(10, 1)
	c.Begin(6, 1)
	c.Plane(0).Add(3, 3, 3, 3, 3, 7)
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	got := drainAll(t, c, 1)
	if len(got) != 2 || got[3] != 5 || got[7] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestDrainResets(t *testing.T) {
	c := New(4, 2)
	c.Begin(1, 2)
	c.Plane(1).Add(1)
	drainAll(t, c, 2)
	if c.Pending() != 0 {
		t.Fatal("touched lists not reset")
	}
	c.Begin(2, 2)
	c.Plane(0).Add(1)
	c.Plane(1).Add(1)
	got := drainAll(t, c, 2)
	if len(got) != 1 || got[1] != 2 {
		t.Fatalf("after reset: %v; want vertex 1 once with count 2 (stale state leaked)", got)
	}
	// A round counted by one worker on a two-plane counter drains as one
	// owner, without sealing.
	c.Begin(3, 1)
	c.Plane(0).Add(1, 2, 2)
	got = drainAll(t, c, 1)
	if len(got) != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("one-worker round: %v; want vertex 1 with 1, vertex 2 with 2", got)
	}
	// Reset clears counts and lists a round left undrained, and marks.
	c.Begin(2, 2)
	c.Plane(0).Add(2, 2)
	c.Seal(0)
	c.Finalize(3)
	c.Reset()
	c.Begin(2, 2)
	c.Plane(1).Add(2, 3)
	got = drainAll(t, c, 2)
	if len(got) != 2 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("after Reset: %v; want vertices 2 and 3 once each", got)
	}
}

// TestRebaseKeepsMarks: rounds whose update bounds pass MaxUpdates rebase
// the planes; counts stay exact and finalized vertices stay unreported.
func TestRebaseKeepsMarks(t *testing.T) {
	c := New(8, 2)
	c.Finalize(5)
	for round := 0; round < 5; round++ {
		c.Begin(MaxUpdates/3, 2)
		c.Plane(round%2).Add(1, 5, 5, 2)
		c.Plane((round+1)%2).Add(1, 5)
		got := drainAll(t, c, 2)
		if len(got) != 2 || got[1] != 2 || got[2] != 1 {
			t.Fatalf("round %d: %v; want vertex 1 with 2, vertex 2 with 1", round, got)
		}
	}
}

// TestAddConcurrentFirstTouch runs W ∈ {1, 2, 4} workers, each counting
// into its own plane, over overlapping, hub-skewed vertex sets for several
// rounds, with some vertices finalized between rounds; then each worker
// seals and, after all have sealed, drains its own owner, all concurrently.
// Every touched vertex that is not finalized is drained exactly once, with
// its exact total over all planes, and a finalized vertex is never
// reported.
func TestAddConcurrentFirstTouch(t *testing.T) {
	const n, per, rounds = 512, 4000, 6
	for _, workers := range []int{1, 2, 4} {
		c := New(n, workers)
		fin := make([]bool, n)
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
					if !fin[v] {
						want[v]++
					}
				}
			}
			c.Begin(int64(workers*per), workers)
			got := make([]int64, n)
			calls := make([]int, n)
			var mu sync.Mutex
			var counted, sealed sync.WaitGroup
			counted.Add(workers)
			sealed.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer counted.Done()
					p := c.Plane(w)
					for i := 0; i < len(targets[w]); i += 7 {
						p.Add(targets[w][i:min(i+7, len(targets[w]))]...)
					}
					c.Seal(w)
					sealed.Done()
					sealed.Wait()
					c.Drain(w, func(v uint32, count int64) {
						mu.Lock()
						got[v] = count
						calls[v]++
						mu.Unlock()
					})
				}(w)
			}
			counted.Wait()
			for v := range want {
				wantCalls := 0
				if want[v] > 0 {
					wantCalls = 1
				}
				if calls[v] != wantCalls || got[v] != want[v] {
					t.Fatalf("W=%d round %d: vertex %d (finalized %v) drained %d times with count %d, want %d times with %d",
						workers, round, v, fin[v], calls[v], got[v], wantCalls, want[v])
				}
			}
			if c.Pending() != 0 {
				t.Fatalf("W=%d round %d: %d first touches left after draining every owner", workers, round, c.Pending())
			}
			// Finalize a hub and a spread of other vertices for the next round.
			for v := round; v < n; v += 37 + round {
				if !fin[v] {
					fin[v] = true
					c.Finalize(uint32(v))
				}
			}
		}
	}
}

// Property: Drain reproduces exactly the multiset of Adds, whichever planes
// the Adds were spread over.
func TestCountsMatchReference(t *testing.T) {
	f := func(vs []uint32) bool {
		c := New(256, 3)
		c.Begin(int64(len(vs)), 3)
		want := map[uint32]int64{}
		for i, v := range vs {
			v %= 256
			c.Plane(i % 3).Add(v)
			want[v]++
		}
		got := map[uint32]int64{}
		for w := 0; w < 3; w++ {
			c.Seal(w)
		}
		for o := 0; o < 3; o++ {
			c.Drain(o, func(v uint32, n int64) { got[v] += n })
		}
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
