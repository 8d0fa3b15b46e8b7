package parallel

import (
	"math/rand"
	"testing"
)

// TestPackIndicesIntoMatchesReference: both the serial-append and the
// flag+scan+scatter branches must produce the ascending kept-index sequence,
// reusing dst capacity when it suffices.
func TestPackIndicesIntoMatchesReference(t *testing.T) {
	for _, w := range []int{1, 4} {
		ex := NewExecutor(w)
		for _, n := range []int{0, 1, 100, scanSerialCutoff + 513} {
			rng := rand.New(rand.NewSource(int64(n + w)))
			keepMap := make([]bool, n)
			var want []uint32
			for i := range keepMap {
				keepMap[i] = rng.Intn(3) == 0
				if keepMap[i] {
					want = append(want, uint32(i))
				}
			}
			var sc PackScratch
			dst := make([]uint32, 0, n)
			keepFn := func(i int) bool { return keepMap[i] }
			got := ex.PackIndicesInto(dst, n, &sc, keepFn)
			if len(got) != len(want) {
				t.Fatalf("w=%d n=%d: got %d indices, want %d", w, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d n=%d: got[%d] = %d, want %d", w, n, i, got[i], want[i])
				}
			}
			if n > 0 && len(got) > 0 && &got[0] != &dst[:1][0] {
				t.Errorf("w=%d n=%d: dst capacity %d not reused for %d results", w, n, cap(dst), len(got))
			}
			// Second call with the now-warm scratch must allocate nothing
			// (the zero-steady-state contract the lazy engine relies on).
			if w == 1 {
				allocs := testing.AllocsPerRun(10, func() {
					got = ex.PackIndicesInto(got, n, &sc, keepFn)
				})
				if allocs != 0 {
					t.Errorf("w=%d n=%d: warm PackIndicesInto allocates %.0f times", w, n, allocs)
				}
			}
		}
		ex.Close()
	}
}
