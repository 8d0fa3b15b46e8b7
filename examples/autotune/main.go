// Autotune: the paper's §5.3 workflow as a library user sees it — compile
// the ∆-stepping DSL program, let the stochastic autotuner search the
// scheduling space on a concrete road network, and print the winning
// schedule in the scheduling language, ready to paste back into the
// program's schedule block.
//
// Run with:
//
//	go run ./examples/autotune
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/autotune"
	"graphit/internal/core"
	"graphit/internal/lang/sched"
)

func main() {
	g, err := graphit.RoadGrid(graphit.RoadOptions{
		Rows: 200, Cols: 200, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	src := graphit.VertexID(7)
	fmt.Printf("tuning ∆-stepping SSSP on %v\n\n", g)

	// The hand-tuned baseline a performance engineer might write: eager
	// with fusion and a large road-network ∆ (paper §6.2).
	hand := graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate("eager_with_fusion").
		ConfigApplyPriorityUpdateDelta(1 << 11)
	start := time.Now()
	if _, err := algo.SSSP(g, src, hand); err != nil {
		log.Fatal(err)
	}
	handTime := time.Since(start)
	fmt.Printf("hand-tuned schedule: %v in %.1fms\n", hand, float64(handTime.Microseconds())/1000)

	// The autotuner's ensemble search (random restarts + greedy mutation),
	// 40 trials as in the paper.
	measure := func(ctx context.Context, cfg core.Config) (time.Duration, error) {
		t0 := time.Now()
		if _, err := algo.SSSPContext(ctx, g, src, graphit.ScheduleFromConfig(cfg)); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	res, err := autotune.Tune(context.Background(), autotune.DefaultSpace(), measure, autotune.Options{
		MaxTrials: 40, Repeats: 2, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autotuned schedule:  %v in %.1fms after %d trials\n",
		res.Best, float64(res.Cost.Microseconds())/1000, len(res.Trials))
	fmt.Printf("ratio autotuned/hand-tuned: %.2f (paper: within 5%% after 30-40 trials)\n\n", res.Cost.Seconds()/handTime.Seconds())

	fmt.Println("scheduling-language form (paste into a .gt schedule block):")
	fmt.Println(sched.Format("s1", res.Best))

	fmt.Println("\ntop 3 trials:")
	for i, tr := range res.Trials {
		if i == 3 || tr.Err != nil {
			break
		}
		fmt.Printf("  %d. %-60v %.1fms\n", i+1, tr.Config, float64(tr.Cost.Microseconds())/1000)
	}
}
