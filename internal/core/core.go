// Package core implements the ordered graph-processing runtime that the
// GraphIt priority-based extension compiles to: bulk-synchronous rounds over
// a bucketed priority queue, under every schedule the paper's scheduling
// language exposes — eager bucket update with and without bucket fusion
// (paper §3.2–3.3), lazy bucket update (§3.1), and lazy with constant-sum
// (histogram) reduction (§5.1) — combined with SparsePush or DensePull edge
// traversal.
//
// An algorithm supplies a priority vector, an edge operator — the native
// MinPlus relaxation, or an edge update function written against the
// Updater API (the runtime face of updatePriorityMin / updatePriorityMax /
// updatePrioritySum from paper Table 1) — and a Config chosen by the
// scheduling layer. The engine owns bucketing, synchronization,
// deduplication, stale-entry filtering, finalization, and termination —
// exactly the low-level details the paper's DSL hides.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/graph"
	"graphit/internal/histogram"
)

// Unreached is the null priority for lower_first (min) queues: a vertex with
// this priority is in no bucket. It corresponds to the paper's ∅ / INT_MAX.
const Unreached = int64(math.MaxInt64)

// NullMax is the null priority for higher_first (max) queues.
const NullMax = int64(math.MinInt64)

// Strategy selects the bucket-update approach, mirroring the scheduling
// language's configApplyPriorityUpdate options (paper Table 2).
type Strategy int

const (
	// EagerWithFusion is eager bucket update plus bucket fusion — the
	// paper's new optimization and the default, as in Table 2.
	EagerWithFusion Strategy = iota
	// EagerNoFusion is GAPBS-style eager bucket update (paper Figure 6).
	EagerNoFusion
	// Lazy is Julienne-style buffered bucket update (paper Figure 5).
	Lazy
	// LazyConstantSum is lazy update with the histogram reduction for
	// constant-delta updatePrioritySum (paper Figure 10).
	LazyConstantSum
)

// strategyNames is indexed by Strategy; strategyByName is its static
// reverse, shared by Strategy.String and ParseStrategy.
var strategyNames = [...]string{
	EagerWithFusion: "eager_with_fusion",
	EagerNoFusion:   "eager_no_fusion",
	Lazy:            "lazy",
	LazyConstantSum: "lazy_constant_sum",
}

var strategyByName = func() map[string]Strategy {
	m := make(map[string]Strategy, len(strategyNames))
	for i, n := range strategyNames {
		m[n] = Strategy(i)
	}
	return m
}()

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy parses a scheduling-language strategy name.
func ParseStrategy(s string) (Strategy, error) {
	if st, ok := strategyByName[s]; ok {
		return st, nil
	}
	return 0, fmt.Errorf("core: unknown priority-update strategy %q", s)
}

// Direction selects the edge-traversal direction, mirroring
// configApplyDirection (paper Figure 8).
type Direction int

const (
	// SparsePush iterates the out-edges of the frontier (sparse id list).
	SparsePush Direction = iota
	// DensePull iterates the in-edges of every vertex against a dense
	// frontier bitmap; destination updates need no atomics (Figure 9(b)).
	DensePull
	// Hybrid picks per round: DensePull when the frontier's out-degree sum
	// exceeds a fraction of |E| (Ligra/Julienne's direction optimization),
	// SparsePush otherwise. The paper notes Julienne pays an out-degree
	// sum per round for this and that disabling it wins for SSSP (§6.2);
	// the ablation benchmarks reproduce that. Lazy strategies only.
	Hybrid
)

// directionNames is indexed by Direction; directionByName is its static
// reverse (plus the "Hybrid" spelling), shared by Direction.String and
// ParseDirection.
var directionNames = [...]string{
	SparsePush: "SparsePush",
	DensePull:  "DensePull",
	Hybrid:     "DensePull-SparsePush",
}

var directionByName = func() map[string]Direction {
	m := make(map[string]Direction, len(directionNames)+1)
	for i, n := range directionNames {
		m[n] = Direction(i)
	}
	m["Hybrid"] = Hybrid
	return m
}()

func (d Direction) String() string {
	if d >= 0 && int(d) < len(directionNames) {
		return directionNames[d]
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ParseDirection parses a scheduling-language direction name.
func ParseDirection(s string) (Direction, error) {
	if d, ok := directionByName[s]; ok {
		return d, nil
	}
	return 0, fmt.Errorf("core: unknown direction %q", s)
}

// Config is a complete schedule for one ordered operator, the runtime
// counterpart of the paper's Table 2 scheduling functions. It is the one
// schedule record: graphit.Schedule, cliutil.ScheduleParams, the DSL's
// schedule blocks and the autotuner's trial points are spellings of it.
// DefaultConfig holds its defaults and Validate its bounds.
type Config struct {
	Strategy Strategy
	// Delta is the priority-coarsening factor ∆ (configApplyPriorityUpdateDelta);
	// bucket = floor(priority/∆). Values < 1 are treated as 1 (no coarsening).
	Delta int64
	// FusionThreshold is the local-bucket size limit below which a worker
	// fuses the next round without synchronizing (configBucketFusionThreshold).
	FusionThreshold int
	// NumBuckets is the number of materialized lazy buckets (configNumBuckets).
	NumBuckets int
	Direction  Direction
	// Workers is the size of the run's executor (0 = GOMAXPROCS). A
	// multi-source run uses it too: its k lanes run as min(k, Workers)
	// lane groups, one per executor worker (see MultiOrdered).
	Workers int
	// Grain is the dynamic-scheduling chunk size (0 = parallel.DefaultGrain).
	Grain int
	// RoundTimeout, when positive, aborts any round running longer than
	// this, counted from before its next_bucket phase, with a *StuckError
	// naming that round. The deadline is judged where the engine already
	// asks whether to stop — at chunk boundaries inside traversal phases
	// and at each round's end — so it catches livelocks (e.g. a fusion loop
	// that never drains) but cannot interrupt a single blocked call into a
	// user edge function. Context cancellation stops a round at the same
	// points, with or without a deadline. 0 disables it (the default); go
	// test -timeout remains the backstop for truly hung code.
	RoundTimeout time.Duration
	// StuckRounds, when positive, aborts with a *StuckError after this many
	// consecutive rounds that extract the same bucket with zero relaxations
	// — a state a correct engine cannot reach, so it is reported as a
	// defect. 0 disables the detector (the default).
	StuckRounds int

	// deltaShift is log2(Delta) when Delta is a power of two, else -1; set
	// by normalize.
	deltaShift int8
}

// DefaultConfig mirrors the scheduling language's defaults (bold options in
// paper Table 2): eager with fusion, ∆=1, the GAPBS-derived fusion
// threshold 1000, Julienne's bucket.DefaultNumOpen lazy buckets, SparsePush.
func DefaultConfig() Config {
	return Config{
		Strategy:        EagerWithFusion,
		Delta:           1,
		FusionThreshold: 1000,
		NumBuckets:      bucket.DefaultNumOpen,
		Direction:       SparsePush,
	}
}

// Validate reports the first field outside its bounds: ∆, the fusion
// threshold and the bucket count must be >= 1; the grain, the worker count,
// the round timeout and the stuck-round count must be >= 0 (0 = default or
// off).
func (c Config) Validate() error {
	switch {
	case c.Delta < 1:
		return fmt.Errorf("schedule: delta must be >= 1, got %d", c.Delta)
	case c.FusionThreshold < 1:
		return fmt.Errorf("schedule: fusion threshold must be >= 1, got %d", c.FusionThreshold)
	case c.NumBuckets < 1:
		return fmt.Errorf("schedule: bucket count must be >= 1, got %d", c.NumBuckets)
	case c.Grain < 0:
		return fmt.Errorf("schedule: grain must be >= 0, got %d", c.Grain)
	case c.Workers < 0:
		return fmt.Errorf("schedule: worker count must be >= 0, got %d", c.Workers)
	case c.RoundTimeout < 0:
		return fmt.Errorf("schedule: round timeout must be >= 0, got %v", c.RoundTimeout)
	case c.StuckRounds < 0:
		return fmt.Errorf("schedule: stuck-round count must be >= 0, got %d", c.StuckRounds)
	}
	return nil
}

// String renders the schedule's result-shaping fields; the grain appears
// only when it is not the default.
func (c Config) String() string {
	s := fmt.Sprintf("{%s ∆=%d fuse<%d buckets=%d %s",
		c.Strategy, c.Delta, c.FusionThreshold, c.NumBuckets, c.Direction)
	if c.Grain != 0 {
		s += fmt.Sprintf(" grain=%d", c.Grain)
	}
	return s + "}"
}

// normalize fills the fields a hand-built Config may leave zero with their
// defaults and caches ∆'s shift.
func (c *Config) normalize() {
	d := DefaultConfig()
	if c.Delta < 1 {
		c.Delta = d.Delta
	}
	c.deltaShift = -1
	if c.Delta&(c.Delta-1) == 0 {
		c.deltaShift = int8(bits.TrailingZeros64(uint64(c.Delta)))
	}
	if c.FusionThreshold <= 0 {
		c.FusionThreshold = d.FusionThreshold
	}
	if c.NumBuckets <= 0 {
		c.NumBuckets = d.NumBuckets
	}
}

// coarsen returns p / Delta, truncated as Go's / truncates. Tuned ∆s are
// powers of two throughout, and the bucket of a priority is taken on every
// swept vertex and every win, so a power-of-two ∆ pays a shift instead of an
// int64 division. >> floors where / truncates, so a negative p (an
// unfloored constant-sum) is first biased by ∆-1.
func (c *Config) coarsen(p int64) int64 {
	if s := c.deltaShift; s >= 0 {
		return (p + (p>>63)&(c.Delta-1)) >> uint(s)
	}
	return p / c.Delta
}

// Stats reports machine-independent execution counters. Rounds and
// synchronization counts reproduce the paper's Table 6 fidelity signal.
type Stats struct {
	// Rounds is the number of bulk-synchronous rounds (bucket extractions).
	Rounds int64 `json:"rounds"`
	// FusedRounds counts bucket-fusion inner iterations that replaced what
	// would otherwise have been global rounds (eager_with_fusion only).
	FusedRounds int64 `json:"fused_rounds"`
	// GlobalSyncs counts global synchronization episodes (one per round:
	// the sweep's join plus the bulk bucket update; one per pass under
	// Ordered.Passes).
	GlobalSyncs int64 `json:"global_syncs"`
	// Relaxations counts edge-function applications.
	Relaxations int64 `json:"relaxations"`
	// BucketInserts counts insertions into bucket structures.
	BucketInserts int64 `json:"bucket_inserts"`
	// WindowAdvances counts lazy overflow re-bucketing passes.
	WindowAdvances int64 `json:"window_advances"`
	// Inversions counts priority updates that landed before the bucket
	// currently being processed (clamped into it).
	Inversions int64 `json:"inversions"`
	// Processed counts vertex dequeues that passed the stale/finalized
	// filters and were actually applied.
	Processed int64 `json:"processed"`
	// PullRounds counts rounds traversed in the pull direction (equal to
	// Rounds under DensePull; per-round under Hybrid).
	PullRounds int64 `json:"pull_rounds"`
}

// add sums o into s, field by field.
func (s *Stats) add(o Stats) {
	s.Rounds += o.Rounds
	s.FusedRounds += o.FusedRounds
	s.GlobalSyncs += o.GlobalSyncs
	s.Relaxations += o.Relaxations
	s.BucketInserts += o.BucketInserts
	s.WindowAdvances += o.WindowAdvances
	s.Inversions += o.Inversions
	s.Processed += o.Processed
	s.PullRounds += o.PullRounds
}

func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d fused=%d syncs=%d relax=%d inserts=%d windows=%d processed=%d",
		s.Rounds, s.FusedRounds, s.GlobalSyncs, s.Relaxations, s.BucketInserts, s.WindowAdvances, s.Processed)
}

// EdgeFunc is a user-defined edge update function: it receives one edge and
// performs priority updates through the Updater. It corresponds to the
// DSL's updateEdge UDF after compiler transformation (atomics and bucket
// updates inserted).
type EdgeFunc func(src, dst graph.VertexID, w graph.Weight, u *Updater)

// StopFunc is a customized stop condition checked once per round with the
// priority of the bucket about to be processed; returning true halts the
// run (paper §2: "halt once a certain vertex has been finalized").
type StopFunc func(curPrio int64) bool

// Relaxation names an edge operator the engines run natively, with no call
// per edge. The zero value names none: the operator runs Apply.
type Relaxation uint8

// VertexPass is one per-round pass over a chunk vs of the frontier, run by
// worker (below Cfg.Workers, or GOMAXPROCS if 0) with its Updater u: the
// runtime form of the DSL's applyExtern and applyExternReduce. It returns
// its work, counted as relaxations. A frontier vertex no pass re-files with
// u.SetPriority leaves the queue.
type VertexPass func(vs []uint32, worker int, u *Updater) (work int64)

// MinPlus is ∆-stepping's relaxation prio[dst] = min(prio[dst], prio[src]+w)
// — paper Figure 3's updateEdge, what the compiler inlines as a writeMin in
// the generated edge loop (§5.1). Every engine body has its own native loop
// for it: the source's priority is loaded once per swept vertex, a plain
// compare precedes the CAS, and a win is recorded in the schedule's bucket
// sink exactly as Updater.UpdatePriorityMin records it. It needs a
// weighted graph and lower_first order, and is not a constant-sum update.
const MinPlus Relaxation = 1

// Ordered is one ordered edgeset-apply operator: the runtime object compiled
// from `while(pq.finished()==false) { ... applyUpdatePriority(f) }`.
type Ordered struct {
	G *graph.Graph
	// Prio is the priority vector backing the abstract priority queue; the
	// algorithm may alias it with its own data (e.g. dist for SSSP).
	Prio  []int64
	Order bucket.Order
	// Relax names the edge operator when the engines can run it natively
	// (MinPlus); it and Apply are mutually exclusive.
	Relax Relaxation
	// Apply is the edge UDF when Relax names no operator: the escape hatch
	// for A*, widest path, k-core and any UDF of another shape. Not used by
	// LazyConstantSum.
	Apply EdgeFunc
	// Passes, when set, replaces the edge operator: each round runs every
	// pass in order over the whole frontier, one barrier per pass (SetCover,
	// the DSL's extern-driven loops). Lazy SparsePush only.
	Passes []VertexPass
	// SumConst is the constant priority delta for LazyConstantSum (e.g. -1
	// for k-core); the engine applies prio += SumConst*count per round.
	SumConst int64
	// SumFloorIsCurrent clamps constant-sum results at the current bucket's
	// priority (k-core's min_threshold = k).
	SumFloorIsCurrent bool
	// FinalizeOnPop marks dequeued vertices as finalized so later priority
	// updates cannot re-bucket them (k-core semantics).
	FinalizeOnPop bool
	// Stop is an optional early-termination condition.
	Stop StopFunc
	// Sources is the initial active set; nil means every vertex with a
	// non-null priority (k-core); SSSP passes the start vertex.
	Sources []graph.VertexID
	// Trace, if set, observes the run with structured per-round events. It
	// overrides any Tracer carried by the run's context (WithTracer).
	Trace Tracer

	Cfg Config

	// fin records finalized vertices when FinalizeOnPop is set.
	fin *atomicutil.Flags
}

// FinalizedVertex reports whether v was finalized by FinalizeOnPop during
// Run (the DSL's pq.finishedVertex). It always returns false when
// FinalizeOnPop is unset.
func (o *Ordered) FinalizedVertex(v graph.VertexID) bool {
	return o.fin != nil && o.fin.IsSet(v)
}

// nullPrio returns the null priority for the configured order.
func (o *Ordered) nullPrio() int64 {
	if o.Order == bucket.Decreasing {
		return NullMax
	}
	return Unreached
}

// bucketOf maps a priority to its (coarsened) bucket id, or bucket.NullBkt
// for null priorities.
func (o *Ordered) bucketOf(p int64) int64 {
	if p == o.nullPrio() {
		return bucket.NullBkt
	}
	return o.Cfg.coarsen(p)
}

// validate checks structural preconditions shared by all strategies.
func (o *Ordered) validate() error {
	if o.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	if len(o.Prio) != o.G.NumVertices() {
		return fmt.Errorf("core: priority vector has %d entries for %d vertices",
			len(o.Prio), o.G.NumVertices())
	}
	if err := o.validateRelax(); err != nil {
		return err
	}
	if o.Passes != nil && (o.Apply != nil || o.Relax != 0 || o.Cfg.Strategy != Lazy || o.Cfg.Direction != SparsePush) {
		return fmt.Errorf("core: Passes replace the edge operator and run under lazy SparsePush only")
	}
	if o.Cfg.Strategy != LazyConstantSum && o.Apply == nil && o.Relax != MinPlus && o.Passes == nil {
		return fmt.Errorf("core: nil edge function")
	}
	if o.Cfg.Strategy == LazyConstantSum && o.SumConst == 0 {
		return fmt.Errorf("core: LazyConstantSum requires a non-zero SumConst")
	}
	if o.Cfg.Strategy == LazyConstantSum && o.G.NumEdges() > histogram.MaxUpdates {
		return fmt.Errorf("core: lazy_constant_sum counts a round in int32 and supports at most %d edges (graph has %d)", histogram.MaxUpdates, o.G.NumEdges())
	}
	if o.Cfg.Direction != SparsePush && !o.G.HasInEdges() {
		return fmt.Errorf("core: %s requires in-edges", o.Cfg.Direction)
	}
	if o.Cfg.Direction != SparsePush && o.Cfg.Strategy == LazyConstantSum {
		return fmt.Errorf("core: %s cannot be combined with lazy_constant_sum", o.Cfg.Direction)
	}
	eager := o.Cfg.Strategy == EagerWithFusion || o.Cfg.Strategy == EagerNoFusion
	if eager && o.Order != bucket.Increasing {
		return fmt.Errorf("core: eager bucket update supports lower_first (increasing) order only")
	}
	if eager && o.Cfg.Direction == Hybrid {
		return fmt.Errorf("core: hybrid direction is a lazy-engine optimization (as in Julienne); use SparsePush or DensePull with eager strategies")
	}
	if o.Cfg.Strategy == EagerWithFusion && o.Cfg.Direction == DensePull {
		return fmt.Errorf("core: bucket fusion requires SparsePush traversal")
	}
	// Negative (non-null) priorities are rejected lazily, while the initial
	// frontier is built (initialActive) — not here, which would cost an O(V)
	// sweep on every Run (painful across 40 autotune trials).
	return nil
}

// validateRelax rejects a Relax the engines cannot run natively. The
// unweighted case is rejected here so the native loops carry no nil-weights
// branch.
func (o *Ordered) validateRelax() error {
	switch {
	case o.Relax == 0:
		return nil
	case o.Relax != MinPlus:
		return fmt.Errorf("core: unknown relaxation %d", o.Relax)
	case o.Apply != nil:
		return fmt.Errorf("core: Relax: MinPlus and a non-nil Apply both name the edge operator; set one")
	case o.Cfg.Strategy == LazyConstantSum:
		return fmt.Errorf("core: Relax: MinPlus is not a constant-sum update and cannot run under lazy_constant_sum")
	case o.Order != bucket.Increasing:
		return fmt.Errorf("core: Relax: MinPlus lowers priorities and requires lower_first order")
	case !o.G.Weighted():
		return fmt.Errorf("core: Relax: MinPlus requires a weighted graph")
	}
	return nil
}
