package parallel

import (
	"sync/atomic"
	"testing"
)

// Micro-benchmarks for the parallel substrate: loop dispatch and scans, on
// an executor of GOMAXPROCS workers.

func BenchmarkForChunksDispatch(b *testing.B) {
	e := NewExecutor(0)
	defer e.Close()
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		e.ForChunks(1<<12, 64, func(lo, hi, _ int) {
			s := int64(0)
			for j := lo; j < hi; j++ {
				s += int64(j)
			}
			sink.Add(s)
		})
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	e := NewExecutor(0)
	defer e.Close()
	xs := make([]int64, 1<<16)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	scratch := make([]int64, len(xs))
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, xs)
		e.PrefixSum(scratch)
	}
}

func BenchmarkPackIndicesInto(b *testing.B) {
	e := NewExecutor(0)
	defer e.Close()
	const n = 1 << 16
	var sc PackScratch
	var dst []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.PackIndicesInto(dst, n, &sc, func(i int) bool { return i%3 == 0 })
	}
}
