package algo

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"graphit"
)

// TestUnorderedConcurrentWorkers runs both unordered baselines at several
// worker counts at once on one graph. Each run sizes its per-worker
// frontiers from its own executor, so a concurrent run with a different
// count cannot change the worker ids it hands out. Every answer must equal
// the sequential reference, and k-core's peel order (and so its Stats) does
// not depend on the worker count.
func TestUnorderedConcurrentWorkers(t *testing.T) {
	g := symRMAT(t, 11)
	src := graphit.VertexID(1)
	wantDist, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	wantCore, err := RefKCore(g)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := UnorderedKCore(g, graphit.DefaultSchedule().ConfigNumWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range []int{1, 2, 4, 1, 2, 4} {
		sched := graphit.DefaultSchedule().ConfigNumWorkers(w)
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := BellmanFord(g, src, sched)
			if err == nil && !slices.Equal(res.Dist, wantDist) {
				err = fmt.Errorf("distances differ from Dijkstra")
			}
			if err != nil {
				t.Errorf("bellmanford workers=%d: %v", w, err)
			}
		}()
		go func() {
			defer wg.Done()
			res, err := UnorderedKCore(g, sched)
			if err == nil && !slices.Equal(res.Coreness, wantCore) {
				err = fmt.Errorf("coreness differs from RefKCore")
			}
			if err == nil && res.Stats != serial.Stats {
				err = fmt.Errorf("stats %+v, want the 1-worker run's %+v", res.Stats, serial.Stats)
			}
			if err != nil {
				t.Errorf("kcore-unordered workers=%d: %v", w, err)
			}
		}()
	}
	wg.Wait()
}
