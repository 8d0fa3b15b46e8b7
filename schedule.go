package graphit

import (
	"fmt"
	"time"

	"graphit/internal/core"
)

// Schedule is the programmatic form of the paper's scheduling language
// (Table 2 plus the original GraphIt direction/parallelization commands
// used in Figure 8). Schedules are immutable values configured fluently:
//
//	s := graphit.DefaultSchedule().
//		ConfigApplyPriorityUpdate("eager_with_fusion").
//		ConfigApplyPriorityUpdateDelta(16384).
//		ConfigApplyDirection("SparsePush")
//
// Invalid settings are recorded and reported when the schedule is used, so
// call sites can chain without per-call error handling (mirroring how the
// DSL reports schedule errors at compile time).
type Schedule struct {
	cfg core.Config
	err error
}

// DefaultSchedule returns the scheduling language's defaults (bold options
// in paper Table 2): eager_with_fusion, ∆=1, fusion threshold 1000, 128
// materialized lazy buckets, SparsePush.
func DefaultSchedule() Schedule {
	return Schedule{cfg: core.DefaultConfig()}
}

// ScheduleFromConfig is the inverse of Schedule.Config: the schedule that
// runs cfg. A field outside core.Config.Validate's bounds is reported by Err.
func ScheduleFromConfig(cfg core.Config) Schedule {
	return Schedule{cfg: cfg, err: cfg.Validate()}
}

// ConfigApplyPriorityUpdate selects the bucket update strategy: one of
// "eager_with_fusion", "eager_no_fusion", "lazy", "lazy_constant_sum".
func (s Schedule) ConfigApplyPriorityUpdate(strategy string) Schedule {
	st, err := core.ParseStrategy(strategy)
	if err != nil {
		return s.fail(err)
	}
	s.cfg.Strategy = st
	return s
}

// ConfigApplyPriorityUpdateDelta sets the priority-coarsening factor ∆.
func (s Schedule) ConfigApplyPriorityUpdateDelta(delta int64) Schedule {
	s.cfg.Delta = delta
	return s.validate()
}

// ConfigBucketFusionThreshold sets the local-bucket size limit below which
// rounds are fused without synchronization.
func (s Schedule) ConfigBucketFusionThreshold(t int) Schedule {
	s.cfg.FusionThreshold = t
	return s.validate()
}

// ConfigNumBuckets sets the number of materialized buckets for the lazy
// strategies (Julienne keeps vertices beyond this window in an overflow
// bucket).
func (s Schedule) ConfigNumBuckets(n int) Schedule {
	s.cfg.NumBuckets = n
	return s.validate()
}

// ConfigApplyDirection selects the traversal direction: "SparsePush",
// "DensePull", or "DensePull-SparsePush" (per-round hybrid, lazy only).
func (s Schedule) ConfigApplyDirection(dir string) Schedule {
	d, err := core.ParseDirection(dir)
	if err != nil {
		return s.fail(err)
	}
	s.cfg.Direction = d
	return s
}

// ConfigApplyParallelization sets the dynamic-scheduling grain size
// ("dynamic-vertex-parallel" with an explicit chunk, paper Figure 8). The
// record's grain 0 means the default, which is selected by not calling
// this, so an explicit grain must be >= 1.
func (s Schedule) ConfigApplyParallelization(grain int) Schedule {
	if grain < 1 {
		return s.fail(fmt.Errorf("schedule: grain must be >= 1, got %d", grain))
	}
	s.cfg.Grain = grain
	return s
}

// ConfigNumWorkers pins the number of workers for this operator: its run
// checks out an executor of that many workers (0 uses GOMAXPROCS).
func (s Schedule) ConfigNumWorkers(w int) Schedule {
	s.cfg.Workers = w
	return s.validate()
}

// ConfigRoundTimeout arms the engine's round deadline: any round running
// longer than d, from before its next_bucket phase, is aborted with a
// StuckError naming it. The deadline is judged cooperatively, at chunk
// boundaries inside traversal phases (an approximate drain's batch
// boundaries included) and at each round's end, the same points where
// context cancellation stops a round with or without it; no goroutine is
// started for it. 0 disables it.
func (s Schedule) ConfigRoundTimeout(d time.Duration) Schedule {
	s.cfg.RoundTimeout = d
	return s.validate()
}

// ConfigStuckRounds aborts the run with a StuckError after k consecutive
// rounds that extract the same bucket with zero relaxations — a state a
// correct engine cannot reach. 0 disables the detector.
func (s Schedule) ConfigStuckRounds(k int) Schedule {
	s.cfg.StuckRounds = k
	return s.validate()
}

// Err returns the first configuration error, if any.
func (s Schedule) Err() error { return s.err }

// Config exposes the underlying runtime configuration (for the experiment
// harness and the compiler backends).
func (s Schedule) Config() (core.Config, error) {
	return s.cfg, s.err
}

// String renders the schedule in the scheduling language's notation.
func (s Schedule) String() string {
	if s.err != nil {
		return fmt.Sprintf("invalid schedule: %v", s.err)
	}
	return s.cfg.String()
}

// validate records the first bound the record breaks, if any.
func (s Schedule) validate() Schedule {
	if err := s.cfg.Validate(); err != nil {
		return s.fail(err)
	}
	return s
}

func (s Schedule) fail(err error) Schedule {
	if s.err == nil {
		s.err = err
	}
	return s
}
