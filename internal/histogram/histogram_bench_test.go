package histogram

import (
	"testing"

	"graphit/internal/atomicutil"
)

// BenchmarkHistogramAdd contrasts the histogram reduction with per-update
// atomic priority writes (BenchmarkDirectAtomicAdd) — the contention the
// lazy_constant_sum schedule avoids on high-degree vertices (paper Figure
// 10).
func BenchmarkHistogramAdd(b *testing.B) {
	c := New(1<<12, 1)
	p := c.Plane(0)
	drain := func(uint32, int64) {}
	c.Begin(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Skewed target distribution: hub vertex 0 receives most updates.
		if i%4 != 0 {
			p.Add(0)
		} else {
			p.Add(uint32(i % (1 << 12)))
		}
		if i%(1<<16) == 0 {
			c.Drain(0, drain)
			c.Begin(1<<16, 1)
		}
	}
}

func BenchmarkDirectAtomicAdd(b *testing.B) {
	prio := make([]int64, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 != 0 {
			atomicutil.AddClamped(&prio[0], -1, 0)
		} else {
			atomicutil.AddClamped(&prio[i%(1<<12)], -1, 0)
		}
	}
}
