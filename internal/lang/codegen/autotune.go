package codegen

import (
	"context"
	"fmt"
	"time"

	"graphit/internal/autotune"
	"graphit/internal/core"
	"graphit/internal/lang/sched"
)

// Autotune searches the scheduling space for the compiled program on a
// concrete graph (paper §5.3): candidates are evaluated by executing the
// plan, and the winner is returned along with its scheduling-language
// rendering, ready to paste into the program's schedule block. The plan's
// schedule for the ordered loop's label is left set to the winner. The
// context bounds the whole search: cancellation is observed between trials,
// and each trial's executions run under it.
func (p *Plan) Autotune(ctx context.Context, opt ExecOptions, tune autotune.Options) (*autotune.Result, string, error) {
	loop := p.Analysis.Loop
	if loop == nil || loop.ExternDriven {
		return nil, "", fmt.Errorf("codegen: autotuning requires a compilable ordered loop")
	}
	label := loop.Label
	display := label
	if display == "" {
		display = "s1"
	}
	pq := p.Checked.PQ
	if pq == nil {
		return nil, "", fmt.Errorf("codegen: program constructs no priority queue")
	}
	// Load the graph once; per-trial reloads would swamp the measurements.
	g, err := p.graph(opt)
	if err != nil {
		return nil, "", err
	}
	opt.Graph = g

	// Derive the legal search space from the compiler's own analyses.
	space := autotune.Space{MaxDeltaExp: 0}
	if pq.AllowCoarsening {
		space.MaxDeltaExp = 17
	}
	if pq.LowerFirst {
		space.Strategies = []core.Strategy{core.EagerWithFusion, core.EagerNoFusion, core.Lazy}
	} else {
		// Max-order queues run on the lazy engine only (as in Julienne).
		space.Strategies = []core.Strategy{core.Lazy}
	}
	if info := p.Analysis.UDFs[loop.UDFName]; info != nil && info.ConstantSum != nil {
		space.AllowConstantSum = true
	}
	space.Directions = []core.Direction{core.SparsePush}
	if g.HasInEdges() {
		space.Directions = append(space.Directions, core.DensePull)
	}

	prev, hadPrev := p.Schedules[label]
	measure := func(ctx context.Context, cfg core.Config) (time.Duration, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		p.Schedules[label] = labelScheduleFromConfig(label, cfg)
		start := time.Now()
		if _, err := p.Execute(opt); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	res, err := autotune.Tune(ctx, space, measure, tune)
	if hadPrev {
		p.Schedules[label] = prev
	} else {
		delete(p.Schedules, label)
	}
	if err != nil {
		return nil, "", err
	}
	p.Schedules[label] = labelScheduleFromConfig(label, res.Best.Config())
	return res, res.Best.ScheduleText(display), nil
}

func labelScheduleFromConfig(label string, cfg core.Config) *sched.LabelSchedule {
	return &sched.LabelSchedule{
		Label:           label,
		Strategy:        cfg.Strategy,
		Delta:           cfg.Delta,
		FusionThreshold: cfg.FusionThreshold,
		NumBuckets:      cfg.NumBuckets,
		Direction:       cfg.Direction,
		Grain:           cfg.Grain,
		NoDedup:         cfg.NoDedup,
	}
}
