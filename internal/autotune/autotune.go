// Package autotune searches the scheduling space for a high-performance
// schedule for a given ordered algorithm and graph, reproducing the paper's
// OpenTuner-based autotuner (Section 5.3): a stochastic ensemble of search
// moves over {strategy, ∆, fusion threshold, bucket count, direction,
// grain}, evaluated by timing real runs, under a trial and wall-clock
// budget. The paper reports schedules within 5% of hand-tuned after 30–40
// trials in a space of ~10^6 schedules; TestAutotunerQuality checks the
// same property against this repository's hand schedules.
package autotune

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"graphit/internal/core"
)

// Space bounds the search.
type Space struct {
	// Strategies to consider (nil = all four).
	Strategies []core.Strategy
	// MaxDeltaExp bounds ∆ at 2^MaxDeltaExp (0 forbids coarsening —
	// k-core/SetCover). The paper's best road-network deltas reach 2^17.
	MaxDeltaExp int
	// Directions to consider (nil = SparsePush only; DensePull requires
	// in-edges).
	Directions []core.Direction
	// AllowConstantSum gates the lazy_constant_sum strategy (only
	// algorithms that pass the Figure 10 analysis may use it).
	AllowConstantSum bool
}

// DefaultSpace is the full space for coarsenable min-algorithms.
func DefaultSpace() Space {
	return Space{
		Strategies: []core.Strategy{
			core.EagerWithFusion, core.EagerNoFusion, core.Lazy,
		},
		MaxDeltaExp: 17,
		Directions:  []core.Direction{core.SparsePush},
	}
}

var fusionThresholds = []int{64, 256, 1000, 4096, 16384}
var bucketCounts = []int{16, 64, 128, 512, 2048}
var grains = []int{0, 16, 64, 256, 1024}

// Measure runs one candidate and reports its cost; return an error for
// invalid combinations (they are skipped, not fatal) and use the returned
// duration for ranking. The context is the one given to Tune: measurements
// should pass it down so a cancellation or deadline halts the run inside
// the current trial rather than after it, and so a core.Tracer carried by
// the context reaches each trial's engine rounds. With Options.Parallel > 1
// the function is called from that many goroutines at once and must be safe
// for concurrent use — engine runs are (each sizes its own executor from
// Cfg.Workers), so a Measure that only runs the operator needs no locking.
// A panic escaping Measure is contained by the tuner: the trial is recorded
// with a *core.PanicError in Trial.Err and skipped.
type Measure func(ctx context.Context, cfg core.Config) (time.Duration, error)

// Options bound the search.
type Options struct {
	// MaxTrials caps evaluated candidates (default 40, the paper's range).
	MaxTrials int
	// Budget caps total wall-clock time (default unlimited).
	Budget time.Duration
	// Repeats per candidate (default 1; the best time is kept).
	Repeats int
	Seed    int64
	// Parallel evaluates up to this many candidates concurrently (default 1
	// = serial). Concurrent trials contend for cores, so measured times are
	// noisier; use it when trading per-trial fidelity for search throughput
	// (e.g. counter-based Measure functions, or wide machines).
	Parallel int
}

// Trial records one evaluated point of the schedule space: a core.Config
// whose ∆ is a power of two and whose other fields are drawn from the
// search grids below.
type Trial struct {
	Config core.Config
	Cost   time.Duration
	Err    error
}

// Result is the autotuner's outcome.
type Result struct {
	Best   core.Config
	Cost   time.Duration
	Trials []Trial
}

// Tune searches the space with an ensemble of moves: random restarts mixed
// with greedy single-coordinate mutations of the incumbent (a small-scale
// analogue of OpenTuner's bandit ensemble). The search checks ctx between
// trials (and hands it to every Measure call): on cancellation it returns
// the best result found so far, or ctx's error if no trial succeeded.
func Tune(ctx context.Context, space Space, measure Measure, opt Options) (*Result, error) {
	if opt.MaxTrials <= 0 {
		opt.MaxTrials = 40
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	if len(space.Strategies) == 0 {
		space.Strategies = DefaultSpace().Strategies
	}
	if len(space.Directions) == 0 {
		space.Directions = []core.Direction{core.SparsePush}
	}
	if space.AllowConstantSum {
		space.Strategies = append(append([]core.Strategy{}, space.Strategies...), core.LazyConstantSum)
	}

	if opt.Parallel <= 0 {
		opt.Parallel = 1
	}
	start := time.Now()
	res := &Result{Cost: 1<<63 - 1}
	seen := map[core.Config]bool{}

	// safeMeasure contains panics escaping a Measure (a faulty candidate
	// path, or a user measure function running outside the engine's own
	// containment): the trial is recorded with a *core.PanicError and
	// skipped, and the search goes on.
	safeMeasure := func(ctx context.Context, cfg core.Config) (d time.Duration, err error) {
		defer func() {
			if r := recover(); r != nil {
				if pe, ok := r.(*core.PanicError); ok {
					err = pe
					return
				}
				err = &core.PanicError{Phase: "autotune.measure", Value: r, Stack: debug.Stack()}
			}
		}()
		return measure(ctx, cfg)
	}

	// evalBatch measures a batch of candidates — concurrently when
	// opt.Parallel > 1, which is safe because every engine run executes on
	// its own fixed-size executor — and folds the outcomes into res in
	// batch order, keeping results deterministic for a given seed.
	evalBatch := func(cands []core.Config) {
		costs := make([]time.Duration, len(cands))
		errs := make([]error, len(cands))
		var wg sync.WaitGroup
		for i := range cands {
			wg.Add(1)
			go func(i int, c core.Config) {
				defer wg.Done()
				best := time.Duration(1<<63 - 1)
				var err error
				for r := 0; r < opt.Repeats; r++ {
					var d time.Duration
					d, err = safeMeasure(ctx, c)
					if err != nil {
						break
					}
					if d < best {
						best = d
					}
				}
				costs[i], errs[i] = best, err
			}(i, cands[i])
		}
		wg.Wait()
		for i, c := range cands {
			res.Trials = append(res.Trials, Trial{Config: c, Cost: costs[i], Err: errs[i]})
			if errs[i] == nil && costs[i] < res.Cost {
				res.Cost = costs[i]
				res.Best = c
			}
		}
	}

	random := func() core.Config {
		return core.Config{
			Strategy:        space.Strategies[rng.Intn(len(space.Strategies))],
			Delta:           1 << rng.Intn(space.MaxDeltaExp+1),
			FusionThreshold: fusionThresholds[rng.Intn(len(fusionThresholds))],
			NumBuckets:      bucketCounts[rng.Intn(len(bucketCounts))],
			Direction:       space.Directions[rng.Intn(len(space.Directions))],
			Grain:           grains[rng.Intn(len(grains))],
		}
	}
	mutate := func(c core.Config) core.Config {
		switch rng.Intn(6) {
		case 0:
			c.Strategy = space.Strategies[rng.Intn(len(space.Strategies))]
		case 1:
			// Local move on the exponent of ∆.
			exp := bits.Len64(uint64(c.Delta)) - 1 + rng.Intn(5) - 2
			c.Delta = 1 << min(max(exp, 0), space.MaxDeltaExp)
		case 2:
			c.FusionThreshold = fusionThresholds[rng.Intn(len(fusionThresholds))]
		case 3:
			c.NumBuckets = bucketCounts[rng.Intn(len(bucketCounts))]
		case 4:
			c.Direction = space.Directions[rng.Intn(len(space.Directions))]
		default:
			c.Grain = grains[rng.Intn(len(grains))]
		}
		return c
	}

	// Seed with the scheduling-language defaults plus pure random points.
	if def := core.DefaultConfig(); ctx.Err() == nil {
		seen[def] = true
		evalBatch([]core.Config{def})
	}
	for len(res.Trials) < opt.MaxTrials {
		if ctx.Err() != nil {
			break
		}
		if opt.Budget > 0 && time.Since(start) > opt.Budget {
			break
		}
		// Draw the next wave of unseen candidates (serially, so the rng
		// stream is deterministic), then measure the wave concurrently.
		// Ensemble: 40% random restart, 60% mutate the incumbent. A bounded
		// number of consecutive already-seen draws ends the search early
		// when the space is (nearly) exhausted.
		want := opt.Parallel
		if rem := opt.MaxTrials - len(res.Trials); want > rem {
			want = rem
		}
		var wave []core.Config
		for misses := 0; len(wave) < want && misses < 200; {
			var c core.Config
			if res.Cost == 1<<63-1 || rng.Float64() < 0.4 {
				c = random()
			} else {
				c = mutate(res.Best)
			}
			if seen[c] {
				misses++
				continue
			}
			seen[c] = true
			wave = append(wave, c)
		}
		if len(wave) == 0 {
			break
		}
		evalBatch(wave)
	}
	if res.Cost == 1<<63-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("autotune: no candidate succeeded in %d trials", len(res.Trials))
	}
	sort.Slice(res.Trials, func(i, j int) bool {
		if (res.Trials[i].Err == nil) != (res.Trials[j].Err == nil) {
			return res.Trials[i].Err == nil
		}
		return res.Trials[i].Cost < res.Trials[j].Cost
	})
	return res, nil
}
