// Package histogram implements the per-round update counting used by the
// "lazy with constant sum reduction" schedule (paper §5.1, Figure 10).
//
// For algorithms whose priority updates are a fixed constant (k-core
// decrements a neighbor's degree by exactly 1 per incident edge), the lazy
// engine does not apply each update individually. It instead counts how many
// updates each vertex receives in a round and applies the transformed
// user-defined function once per vertex with that count, avoiding contention
// on high-degree vertices.
//
// The package also provides Buckets, a lock-free fixed-bound histogram with
// Prometheus `le` bucket semantics — the bucketing layer the metrics
// registry (internal/obs) folds latencies and frontier sizes into.
package histogram

import "sync/atomic"

// Counter accumulates per-vertex update counts for one round. An update is
// one fetch-add; the add that returns 1 is the vertex's first touch this
// round, and its worker appends the vertex to its own touched list.
type Counter struct {
	counts  []int64
	touched [][]uint32 // touched[worker]: vertices whose first touch it made
}

// New returns a counter over vertices [0, n) for workers [0, workers).
func New(n, workers int) *Counter {
	return &Counter{
		counts:  make([]int64, n),
		touched: make([][]uint32, workers),
	}
}

// Add records one update for v on behalf of worker. Safe for concurrent use
// provided no two goroutines pass the same worker at once.
func (c *Counter) Add(v uint32, worker int) {
	if atomic.AddInt64(&c.counts[v], 1) == 1 {
		c.touched[worker] = append(c.touched[worker], v)
	}
}

// Drain invokes fn for every vertex touched since the last Drain, with its
// accumulated count, then resets the counter for the next round. Drain is
// not safe for concurrent use with Add.
func (c *Counter) Drain(fn func(v uint32, count int64)) {
	for w, list := range c.touched {
		for _, v := range list {
			fn(v, c.counts[v])
			c.counts[v] = 0
		}
		c.touched[w] = list[:0]
	}
}

// Touched returns the number of distinct vertices updated this round.
func (c *Counter) Touched() int {
	n := 0
	for _, list := range c.touched {
		n += len(list)
	}
	return n
}
