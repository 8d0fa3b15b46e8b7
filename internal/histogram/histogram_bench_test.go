package histogram

import (
	"testing"

	"graphit/internal/atomicutil"
)

// BenchmarkCounterVsAtomicUpdates contrasts the histogram reduction with
// per-update atomic priority writes — the contention the lazy_constant_sum
// schedule avoids on high-degree vertices (paper Figure 10).

func BenchmarkHistogramAdd(b *testing.B) {
	c := New(1<<12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Skewed target distribution: hub vertex 0 receives most updates.
		if i%4 != 0 {
			c.Add(0, 0)
		} else {
			c.Add(uint32(i%(1<<12)), 0)
		}
		if i%(1<<16) == 0 {
			c.Drain(func(uint32, int64) {})
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
