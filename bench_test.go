// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), one benchmark family per artifact. Each family exercises the
// workload behind the corresponding experiment at test-friendly scale;
// cmd/benchtab produces the full formatted tables at medium/large scale.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package graphit_test

import (
	"context"
	"fmt"
	"testing"

	"graphit"
	"graphit/algo"
	"graphit/internal/bench"
)

const benchScale = bench.ScaleSmall

// BenchmarkFig1_OrderedVsUnordered times the ordered and unordered
// variants of SSSP and k-core (paper Figure 1's speedup bars).
func BenchmarkFig1_OrderedVsUnordered(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		b.Run(d.Name+"/SSSP-ordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SSSP(context.Background(), bench.FwGraphIt, d, src))
			}
		})
		b.Run(d.Name+"/SSSP-unordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SSSP(context.Background(), bench.FwUnordered, d, src))
			}
		})
		b.Run(d.Name+"/kcore-ordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.KCore(context.Background(), bench.FwGraphIt, d))
			}
		})
		b.Run(d.Name+"/kcore-unordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.KCore(context.Background(), bench.FwUnordered, d))
			}
		})
	}
}

// BenchmarkFig4_FrameworkHeatmap times SSSP and k-core under every
// framework stand-in (paper Figure 4's heatmap columns).
func BenchmarkFig4_FrameworkHeatmap(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		for _, fw := range []bench.Framework{bench.FwGraphIt, bench.FwGAPBS, bench.FwJulienne, bench.FwGalois} {
			b.Run(fmt.Sprintf("%s/SSSP/%s", d.Name, fw), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustRun(b, bench.SSSP(context.Background(), fw, d, src))
				}
			})
		}
		for _, fw := range []bench.Framework{bench.FwGraphIt, bench.FwJulienne} {
			b.Run(fmt.Sprintf("%s/kcore/%s", d.Name, fw), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustRun(b, bench.KCore(context.Background(), fw, d))
				}
			})
		}
	}
}

// BenchmarkTable4_MainComparison times all six algorithms under the best
// GraphIt schedule (paper Table 4's GraphIt row).
func BenchmarkTable4_MainComparison(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		dst := graphit.VertexID(uint32(d.Graph.NumVertices() / 2))
		b.Run(d.Name+"/SSSP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SSSP(context.Background(), bench.FwGraphIt, d, src))
			}
		})
		b.Run(d.Name+"/PPSP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.PPSP(context.Background(), bench.FwGraphIt, d, src, dst))
			}
		})
		b.Run(d.Name+"/kcore", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.KCore(context.Background(), bench.FwGraphIt, d))
			}
		})
		b.Run(d.Name+"/SetCover", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SetCover(context.Background(), bench.FwGraphIt, d))
			}
		})
	}
	for _, d := range mustDatasets(b)(bench.Social(benchScale)) {
		src := firstSource(d)
		b.Run(d.Name+"/wBFS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.WBFS(context.Background(), bench.FwGraphIt, d, src))
			}
		})
	}
	for _, d := range mustDatasets(b)(bench.Road(benchScale)) {
		src := firstSource(d)
		dst := graphit.VertexID(uint32(d.Graph.NumVertices() - 1))
		b.Run(d.Name+"/AStar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.AStar(context.Background(), bench.FwGraphIt, d, src, dst))
			}
		})
	}
}

// BenchmarkTable5_LineCounts regenerates the lines-of-code table (paper
// Table 5); the "benchmark" measures the counting pass and logs the table
// once.
func BenchmarkTable5_LineCounts(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t, err := bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

// BenchmarkTable6_BucketFusion times SSSP with and without bucket fusion
// and reports the synchronized-round counts (paper Table 6).
func BenchmarkTable6_BucketFusion(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		b.Run(d.Name+"/with-fusion", func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				r := bench.SSSP(context.Background(), bench.FwGraphIt, d, src)
				mustRun(b, r)
				rounds = r.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(d.Name+"/no-fusion", func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				r := bench.SSSP(context.Background(), bench.FwGAPBS, d, src)
				mustRun(b, r)
				rounds = r.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTable7_EagerVsLazy times eager versus lazy bucket updates for
// k-core and SSSP (paper Table 7).
func BenchmarkTable7_EagerVsLazy(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		g, err := d.Symmetrized()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name+"/kcore-eager", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.KCore(g, graphit.DefaultSchedule().
					ConfigApplyPriorityUpdate("eager_no_fusion")); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.Name+"/kcore-lazy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.KCore(g, graphit.DefaultSchedule().
					ConfigApplyPriorityUpdate("lazy_constant_sum")); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.Name+"/sssp-eager", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SSSP(context.Background(), bench.FwGraphIt, d, src))
			}
		})
		b.Run(d.Name+"/sssp-lazy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bench.SSSP(context.Background(), bench.FwJulienne, d, src))
			}
		})
	}
}

// BenchmarkFig11_Scalability sweeps worker counts for SSSP (paper Figure
// 11). On a single-core host the series exercises the multi-worker code
// paths; the wall-clock shape needs real cores.
func BenchmarkFig11_Scalability(b *testing.B) {
	d := mustDatasets(b)(bench.Road(benchScale))[0]
	src := firstSource(d)
	for _, w := range []int{1, 2, 4, 8} {
		// GraphIt's SSSP schedule (bench.SSSP under FwGraphIt) on w workers.
		sched := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("eager_with_fusion").
			ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
			ConfigNumWorkers(w)
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.SSSP(d.Graph, src, sched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaSweep times SSSP across priority-coarsening factors (the
// ∆-selection analysis of paper §6.2).
func BenchmarkDeltaSweep(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		for _, exp := range []int{0, 4, 9, 13} {
			sched := graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("eager_with_fusion").
				ConfigApplyPriorityUpdateDelta(1 << exp)
			b.Run(fmt.Sprintf("%s/delta-2e%d", d.Name, exp), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algo.SSSP(d.Graph, src, sched); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// mustDatasets unwraps a roster builder, failing the benchmark on a
// generation error.
func mustDatasets(b *testing.B) func([]*bench.Dataset, error) []*bench.Dataset {
	return func(ds []*bench.Dataset, err error) []*bench.Dataset {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
}

func firstSource(d *bench.Dataset) graphit.VertexID {
	n := d.Graph.NumVertices()
	v := graphit.VertexID(17 % n)
	for d.Graph.OutDegree(v) == 0 {
		v = graphit.VertexID((int(v) + 1) % n)
	}
	return v
}

func mustRun(b *testing.B, r bench.RunResult) {
	b.Helper()
	if r.Unsupported {
		b.Skip("unsupported framework/algorithm pair")
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// bucket-fusion size threshold (load-balance vs synchronization), the
// number of materialized lazy buckets (window vs overflow re-bucketing),
// and the dynamic-scheduling grain.

func BenchmarkAblation_FusionThreshold(b *testing.B) {
	d := mustDatasets(b)(bench.Road(benchScale))[0]
	src := firstSource(d)
	for _, thr := range []int{1, 16, 256, 1000, 16384} {
		sched := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("eager_with_fusion").
			ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
			ConfigBucketFusionThreshold(thr)
		b.Run(fmt.Sprintf("threshold-%d", thr), func(b *testing.B) {
			var rounds, fused int64
			for i := 0; i < b.N; i++ {
				r, err := algo.SSSP(d.Graph, src, sched)
				if err != nil {
					b.Fatal(err)
				}
				rounds, fused = r.Stats.Rounds, r.Stats.FusedRounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(fused), "fused")
		})
	}
}

func BenchmarkAblation_NumBuckets(b *testing.B) {
	d := mustDatasets(b)(bench.Social(benchScale))[0]
	g, err := d.Symmetrized()
	if err != nil {
		b.Fatal(err)
	}
	for _, nb := range []int{4, 32, 128, 1024} {
		sched := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdate("lazy_constant_sum").
			ConfigNumBuckets(nb)
		b.Run(fmt.Sprintf("buckets-%d", nb), func(b *testing.B) {
			var windows int64
			for i := 0; i < b.N; i++ {
				r, err := algo.KCore(g, sched)
				if err != nil {
					b.Fatal(err)
				}
				windows = r.Stats.WindowAdvances
			}
			b.ReportMetric(float64(windows), "window-advances")
		})
	}
}

func BenchmarkAblation_Grain(b *testing.B) {
	d := mustDatasets(b)(bench.Social(benchScale))[1]
	src := firstSource(d)
	for _, grain := range []int{8, 64, 512} {
		sched := graphit.DefaultSchedule().
			ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
			ConfigApplyParallelization(grain)
		b.Run(fmt.Sprintf("grain-%d", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.SSSP(d.Graph, src, sched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DirectionOptimization reproduces the paper's §6.2
// observation about Julienne's SSSP: the hybrid direction optimizer pays
// an out-degree sum every round and rarely helps ∆-stepping, so plain
// SparsePush wins.
func BenchmarkAblation_DirectionOptimization(b *testing.B) {
	for _, d := range mustDatasets(b)(bench.All(benchScale)) {
		src := firstSource(d)
		for _, dir := range []string{"SparsePush", "DensePull-SparsePush"} {
			sched := graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("lazy").
				ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp).
				ConfigApplyDirection(dir)
			b.Run(fmt.Sprintf("%s/%s", d.Name, dir), func(b *testing.B) {
				var pulls int64
				for i := 0; i < b.N; i++ {
					r, err := algo.SSSP(d.Graph, src, sched)
					if err != nil {
						b.Fatal(err)
					}
					pulls = r.Stats.PullRounds
				}
				b.ReportMetric(float64(pulls), "pull-rounds")
			})
		}
	}
}
