package core_test

import (
	"testing"

	"graphit/algo"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/gen"
)

// TestLazyWindowAdvanceSkipsStaleOverflow: lazy wBFS (∆=1) on a weighted
// R-MAT with a narrow bucket window advances the window many times, and
// vertices filed in the overflow are often improved into the window and
// swept there before the advance. The advance must drop those stale
// overflow copies: the rounds' bucket ids never step back, the distances
// equal Dijkstra's, and with ∆=1 and positive weights every reached vertex
// is swept exactly once.
func TestLazyWindowAdvanceSkipsStaleOverflow(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 12, 202))
	if err != nil {
		t.Fatal(err)
	}
	want, err := algo.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	reached := int64(0)
	for _, d := range want {
		if d != core.Unreached {
			reached++
		}
	}
	for _, nb := range []int{16, 128} {
		for _, w := range []int{1, 2} {
			dist := make([]int64, g.NumVertices())
			for v := range dist {
				dist[v] = core.Unreached
			}
			dist[0] = 0
			cfg := core.DefaultConfig()
			cfg.Strategy, cfg.Delta, cfg.NumBuckets, cfg.Workers = core.Lazy, 1, nb, w
			tr := &core.MemTracer{}
			op := &core.Ordered{G: g, Prio: dist, Order: bucket.Increasing, Relax: core.MinPlus,
				Sources: []uint32{0}, Trace: tr, Cfg: cfg}
			st, err := op.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.WindowAdvances == 0 {
				t.Fatalf("buckets=%d W=%d: no window advance; the test needs some", nb, w)
			}
			for i := 1; i < len(tr.Events); i++ {
				if a, b := tr.Events[i-1].Bucket, tr.Events[i].Bucket; b < a {
					t.Errorf("buckets=%d W=%d: round %d extracts bucket %d after bucket %d",
						nb, w, tr.Events[i].Round, b, a)
					break
				}
			}
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("buckets=%d W=%d: dist[%d] = %d, want %d", nb, w, v, dist[v], want[v])
				}
			}
			if st.Processed != reached {
				t.Errorf("buckets=%d W=%d: processed %d, want one sweep per reached vertex (%d)",
					nb, w, st.Processed, reached)
			}
		}
	}
}
