package parallel

import (
	"sync/atomic"
	"testing"
)

// Micro-benchmark for the parallel substrate's loop dispatch, on an
// executor of GOMAXPROCS workers.

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
