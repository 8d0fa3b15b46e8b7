package algo

import (
	"fmt"
	"sync"
	"testing"

	"graphit"
)

// kcoreBenchGraphs are the benchmark spine's paper_suite k-core graphs: the
// symmetrized R-MAT 17/12 (seed 202) and the 350×350 road grid (seed 303).
var kcoreBenchGraphs = sync.OnceValues(func() (map[string]*graphit.Graph, error) {
	rmat, err := graphit.RMAT(graphit.DefaultRMAT(17, 12, 202))
	if err != nil {
		return nil, err
	}
	social, err := rmat.Symmetrized()
	if err != nil {
		return nil, err
	}
	road, err := graphit.RoadGrid(graphit.RoadOptions{Rows: 350, Cols: 350, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 303})
	if err != nil {
		return nil, err
	}
	return map[string]*graphit.Graph{"social": social, "road": road}, nil
})

// BenchmarkKCoreConstantSum times solo lazy_constant_sum k-core at one and
// two workers on each graph, so the second worker's gain (or loss) is one
// command away:
//
//	go test -run '^$' -bench KCoreConstantSum -count 6 ./algo/
func BenchmarkKCoreConstantSum(b *testing.B) {
	graphs, err := kcoreBenchGraphs()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"social", "road"} {
		g := graphs[name]
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", name, w), func(b *testing.B) {
				sched := graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy_constant_sum").ConfigNumWorkers(w)
				var relax int64
				for i := 0; i < b.N; i++ {
					res, err := KCore(g, sched)
					if err != nil {
						b.Fatal(err)
					}
					relax = res.Stats.Relaxations
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(relax), "ns/relax")
			})
		}
	}
}
