package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// bucketSource abstracts next-bucket extraction and bulk re-bucketing: the
// eager thread-local bins, the lazy Julienne buckets, and (paired with the
// histogram traversal) the constant-sum path all implement it. Together
// with traversal it is the engine's pluggable axis pair — every strategy in
// the scheduling space is one (bucketSource, traversal) composition run by
// the same round loop.
type bucketSource interface {
	// next extracts the next non-empty bucket and its frontier, or
	// (bucket.NullBkt, nil) when the queue is exhausted.
	next() (int64, []uint32)
	// update bulk-moves the round's changed vertices to their new buckets
	// (no-op for eager, whose traversal re-buckets inline).
	update(ids []uint32)
	// finish folds the source's internal counters into st.
	finish(st *Stats)
}

// traversal abstracts one round's edge sweep — SparsePush, DensePull, the
// per-round Hybrid choice, or the constant-sum histogram reduction. It
// returns the vertices whose priorities changed (for bucketSource.update),
// whether the round pulled, and whether the sweep observed a cooperative
// abort (watchdog timeout or mid-round cancellation) and stopped early —
// in which case its effects may be partial and updated must be discarded.
type traversal interface {
	relax(bid, curPrio int64, frontier []uint32) (updated []uint32, pull, aborted bool)
}

// engine is one composed (bucketSource, traversal) pair plus the per-worker
// updaters whose counters the round loop folds. All parallel phases run on
// ex, the run's private executor, whose fixed worker count sized ups; ctl
// is the run's shared fault-control block (abort flag, injection hook).
type engine struct {
	o    *Ordered
	src  bucketSource
	trav traversal
	ups  []*Updater
	ex   *parallel.Executor
	ctl  *runCtl
}

// Run executes the ordered operator to completion and returns its counters.
func (o *Ordered) Run() (Stats, error) {
	return o.RunContext(context.Background())
}

// RunContext executes the ordered operator under ctx. Cancellation is
// cooperative: the engine checks ctx at every round barrier (and, when a
// RoundTimeout watchdog is active, at chunk boundaries mid-round), so a
// cancelled or expired context halts the run promptly and returns the
// partial Stats accumulated so far together with ctx.Err().
//
// Faults are contained: a panic in a traversal phase (typically a user
// edge function) is recovered and returned as a *PanicError, and a round
// exceeding Cfg.RoundTimeout or stalling for Cfg.StuckRounds rounds is
// aborted with a *StuckError — in both cases with partial Stats and the
// process, executor, and pools intact. Under Cfg.OnFault=FaultRetrySerial
// the engine instead re-executes the faulted round serially, rebuilds its
// bucket state from the priority vector, and resumes.
func (o *Ordered) RunContext(ctx context.Context) (Stats, error) {
	o.Cfg.normalize()
	if err := o.validate(); err != nil {
		return Stats{}, err
	}
	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion, Lazy, LazyConstantSum:
	default:
		return Stats{}, fmt.Errorf("core: unknown strategy %d", int(o.Cfg.Strategy))
	}
	if o.FinalizeOnPop {
		o.fin = atomicutil.NewFlags(o.G.NumVertices())
	}
	active, err := o.initialActive()
	if err != nil {
		return Stats{}, err
	}
	tr := o.tracer(ctx)
	_, isNop := tr.(NopTracer)
	trace := !isNop
	if len(active) == 0 {
		if trace {
			tr.RunStart(o.runInfo(0))
			tr.RunEnd(Stats{}, nil)
		}
		return Stats{}, nil
	}

	// The run's private executor: a persistent worker pool with a count
	// fixed at Cfg.Workers (default Workers()) for the whole run, so
	// concurrent runs with different counts are isolated — no global
	// SetWorkers override — and per-round parallel phases reuse parked
	// workers instead of spawning goroutines.
	ex := parallel.Acquire(o.Cfg.Workers)
	ctl := newRunCtl(ctx)
	var stopWatch func()
	if o.Cfg.RoundTimeout > 0 {
		stopWatch = ctl.startWatchdog(ctx, o.Cfg.RoundTimeout)
	}
	sc := getScratch()
	e := o.buildEngine(sc, ex, active, ctl)
	if trace {
		tr.RunStart(o.runInfo(len(active)))
	}
	var st Stats
	var runErr error
	clean := true
	lastProgress := int64(-1)
	for {
		fault, err := e.run(ctx, tr, trace, &st)
		// The engine (or its replacement below) is done with its source
		// either way; fold the source's counters before moving on.
		e.src.finish(&st)
		if fault == nil {
			runErr = err
			break
		}
		// A fault leaves derived state (bins, dedup flags, histograms,
		// updater buffers) partial: the scratch must not be pooled.
		clean = false
		if o.Cfg.OnFault != FaultRetrySerial || st.Relaxations <= lastProgress {
			// No retry policy — or the previous retry cycle made no
			// progress, so retrying again would loop forever on the same
			// deterministic fault.
			runErr = fault.err
			break
		}
		lastProgress = st.Relaxations
		st.Retries++
		ctl.reset()
		if fault.frontier != nil {
			if rerr := o.retryRelax(fault, &st, ctl); rerr != nil {
				runErr = rerr
				break
			}
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		act := o.reactivate()
		if len(act) == 0 {
			break // the retried round reached the fixpoint
		}
		// Rebuild the engine from the authoritative priority vector on
		// fresh scratch; the dirty scratch is abandoned to the GC.
		sc = new(scratch)
		e = o.buildEngine(sc, ex, act, ctl)
	}
	if stopWatch != nil {
		stopWatch()
	}
	if trace {
		tr.RunEnd(st, runErr)
	}
	// Not deferred on purpose: scratch that went through a fault — or a
	// watchdog-driven mid-round cancellation — is dirty (partial dedup
	// flags, undrained histogram) and must not be pooled, and pooling must
	// happen only after every parallel phase has joined.
	if ctl.aborted() != abortNone {
		clean = false
	}
	if clean {
		putScratch(sc)
	}
	parallel.Release(ex)
	return st, runErr
}

// reactivate returns every vertex that must re-enter a rebuilt engine
// after a fault: non-null priority and not finalized. Together with the
// finalized flags, the priority vector is the engine's only authoritative
// state, so this set (re-bucketed by current priority) restores a
// consistent engine regardless of where the previous one faulted.
// Already-settled vertices are re-processed — their relaxations win no
// updates, so the rebuilt run still terminates with identical results.
func (o *Ordered) reactivate() []uint32 {
	null := o.nullPrio()
	var act []uint32
	for v, p := range o.Prio {
		if p == null {
			continue
		}
		if o.fin != nil && o.fin.IsSet(uint32(v)) {
			continue
		}
		act = append(act, uint32(v))
	}
	return act
}

// retryRelax re-executes one faulted round's relax phase serially and
// deterministically: a single worker sweeps the saved frontier with fresh
// scratch state (clean dedup flags, empty histogram), so the round's
// effects land exactly once even though the parallel attempt applied an
// unknown prefix of them. Min/max updates are idempotent, and constant-sum
// skips its serial Drain when aborted mid-count, so re-running the whole
// frontier is safe for every strategy (validate rejects the one unsafe
// combination, eager finalize-on-pop). Phase names seen by fault hooks
// carry the "retry." prefix; a fault during the retry itself is terminal.
func (o *Ordered) retryRelax(f *roundFault, st *Stats, ctl *runCtl) (err error) {
	rctl := &runCtl{hook: ctl.hook, prefix: RetryPrefix}
	rctl.round.Store(f.round)
	re := o.buildRetrySweep(rctl)
	defer func() {
		if r := recover(); r != nil {
			re.fold(st)
			err = asPanicError(RetryPrefix+PhaseRelax, f.round, r)
		}
	}()
	for _, u := range re.ups {
		u.curBin, u.curPrio = f.bid, f.curPrio
	}
	re.trav.relax(f.bid, f.curPrio, f.frontier)
	re.fold(st)
	return nil
}

// retrySweep is the single-worker traversal used by retryRelax: the same
// traversal type the faulted engine ran, minus the bucket source (the
// retry's bucket insertions are discarded — the rebuild re-derives them
// from the priority vector).
type retrySweep struct {
	trav traversal
	ups  []*Updater
}

func (re *retrySweep) fold(st *Stats) {
	for _, u := range re.ups {
		st.Relaxations += u.relaxations
		st.Inversions += u.inversions
		st.Processed += u.processed
		u.relaxations, u.inversions, u.processed, u.fused = 0, 0, 0, 0
	}
}

func (o *Ordered) buildRetrySweep(ctl *runCtl) *retrySweep {
	// One worker (w=1 runs on the caller, no goroutines) on fresh scratch.
	// Fusion is off: the retry must re-execute exactly the faulted round, not
	// chase newly generated same-bucket work (the rebuilt parallel engine
	// picks that up).
	trav, ups, _ := o.compose(new(scratch), parallel.NewExecutor(1), ctl, false)
	return &retrySweep{trav: trav, ups: ups}
}

// tracer resolves the run's Tracer: the operator's explicit Trace field,
// else one carried by ctx (WithTracer), else the no-op tracer.
func (o *Ordered) tracer(ctx context.Context) Tracer {
	if o.Trace != nil {
		return o.Trace
	}
	if t, ok := TracerFrom(ctx); ok && t != nil {
		return t
	}
	return NopTracer{}
}

func (o *Ordered) runInfo(frontier int) RunInfo {
	return RunInfo{
		Strategy:    o.Cfg.Strategy.String(),
		Direction:   o.Cfg.Direction.String(),
		Delta:       o.Cfg.Delta,
		NumVertices: o.G.NumVertices(),
		NumEdges:    int64(o.G.NumEdges()),
		Frontier:    frontier,
	}
}

// buildEngine composes the (bucketSource, traversal) pair for the
// configured schedule and seeds it with the initial active set.
func (o *Ordered) buildEngine(sc *scratch, ex *parallel.Executor, active []uint32, ctl *runCtl) *engine {
	trav, ups, bins := o.compose(sc, ex, ctl, o.Cfg.Strategy == EagerWithFusion)
	e := &engine{o: o, trav: trav, ups: ups, ex: ex, ctl: ctl}
	if bins == nil {
		e.src = o.newLazySource(ex, active)
		return e
	}
	for i, v := range active {
		bins[i%len(bins)].Insert(o.bucketOf(o.Prio[v]), v)
	}
	e.src = &eagerBins{o: o, bins: bins, sc: sc}
	return e
}

// compose builds the schedule's traversal on sc and ex — the one
// composition RunContext's engine, the serial retry sweep and Manual share:
// the strategy → traversal switch, the grain default, per-worker updaters
// sized from ex's immutable worker count (the count every traversal phase
// runs with), their atomics flags, and the dedup and dense scratch. Eager
// schedules also return the per-worker bins their updaters write, for the
// caller to seed; fusion applies to eager push only.
func (o *Ordered) compose(sc *scratch, ex *parallel.Executor, ctl *runCtl, fusion bool) (traversal, []*Updater, []*bucket.LocalBins) {
	n := o.G.NumVertices()
	w := ex.Workers()
	grain := o.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	ups := sc.getUpdaters(o, w)
	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion:
		bins := sc.getBins(w)
		for i, u := range ups {
			u.bins = bins[i]
		}
		if o.Cfg.Direction == DensePull {
			inFron, _ := sc.getDense(n)
			return &eagerPull{o: o, ex: ex, ups: ups, inFron: inFron, grain: grain, ctl: ctl}, ups, bins
		}
		for _, u := range ups {
			u.atomics = true
		}
		return &eagerPush{o: o, ex: ex, ups: ups, bins: bins, fusion: fusion, grain: grain, ctl: ctl}, ups, bins
	case LazyConstantSum:
		for _, u := range ups {
			u.atomics = true
		}
		return &constSumTrav{o: o, ex: ex, sc: sc, ups: ups, hist: sc.getHist(n), grain: grain, ctl: ctl}, ups, nil
	default: // Lazy
		t := &lazyTrav{
			o: o, ex: ex, sc: sc, ups: ups, grain: grain,
			pullThreshold: int64(o.G.NumEdges()) / 20,
			ctl:           ctl,
		}
		if !o.Cfg.NoDedup {
			t.dedup = sc.getDedup(n)
		}
		if o.Cfg.Direction != SparsePush {
			t.inFron, t.nextMap = sc.getDense(n)
		}
		return t, ups, nil
	}
}

// phase runs one engine phase with panic containment: the injection hook
// fires first (worker 0's checkpoint), then fn; a panic from either — or
// re-raised by the executor from a worker — is recovered and converted to
// a *PanicError naming the phase and round.
func (e *engine) phase(name string, fn func()) (pe *PanicError) {
	ctl := e.ctl
	defer func() {
		if r := recover(); r != nil {
			pe = asPanicError(ctl.prefix+name, ctl.round.Load(), r)
		}
	}()
	ctl.fire(name, 0)
	fn()
	return nil
}

// fold drains the per-worker updater counters into st and returns this
// round's relaxation/processed/fused counts. It runs after every relax
// phase, including faulted ones, so partial work is always accounted.
func (e *engine) fold(st *Stats) (rRelax, rProc, rFused int64) {
	for _, u := range e.ups {
		rRelax += u.relaxations
		rProc += u.processed
		rFused += u.fused
		st.Relaxations += u.relaxations
		st.Inversions += u.inversions
		st.Processed += u.processed
		st.FusedRounds += u.fused
		u.relaxations, u.inversions, u.processed, u.fused = 0, 0, 0, 0
	}
	return rRelax, rProc, rFused
}

// recentRounds bounds the ring of completed-round events attached to a
// StuckError for diagnosis.
const recentRounds = 8

// run is the single shared round loop: extract the next bucket, check the
// stop condition, sweep edges, fold counters, bulk-update buckets — with a
// cooperative cancellation check at every round barrier. It returns a
// non-nil roundFault when a round was interrupted by a contained panic or
// a watchdog timeout (the caller decides between failing and retrying),
// and a terminal error for cancellation or a no-progress abort.
func (e *engine) run(ctx context.Context, tr Tracer, trace bool, st *Stats) (*roundFault, error) {
	o := e.o
	ctl := e.ctl
	keepRecent := o.Cfg.RoundTimeout > 0 || o.Cfg.StuckRounds > 0
	var recent []RoundEvent
	stuckRun := 0
	lastBid := int64(math.MinInt64)
	var stuckSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ctl.beginRound(st.Rounds + 1)
		var bid int64
		var frontier []uint32
		if pe := e.phase(PhaseNext, func() { bid, frontier = e.src.next() }); pe != nil {
			return &roundFault{err: pe, round: st.Rounds + 1}, nil
		}
		if bid == bucket.NullBkt {
			ctl.endRound()
			return nil, nil
		}
		curPrio := bid * o.Cfg.Delta
		if o.Stop != nil && o.Stop(curPrio) {
			ctl.endRound()
			return nil, nil
		}
		st.Rounds++
		for _, u := range e.ups {
			u.curBin, u.curPrio = bid, curPrio
		}
		var begin time.Time
		if trace || keepRecent {
			begin = time.Now()
		}
		var updated []uint32
		var pull, aborted bool
		pe := e.phase(PhaseRelax, func() { updated, pull, aborted = e.trav.relax(bid, curPrio, frontier) })
		rRelax, rProc, rFused := e.fold(st)
		if pe != nil {
			return &roundFault{
				err: pe, round: st.Rounds, bid: bid, curPrio: curPrio,
				frontier: append([]uint32(nil), frontier...),
			}, nil
		}
		if aborted {
			if ctl.aborted() == abortCancel {
				return nil, ctx.Err()
			}
			se := &StuckError{
				Reason: StuckRoundTimeout, Round: st.Rounds, Bucket: bid,
				Priority: curPrio, Frontier: len(frontier),
				Elapsed: time.Since(begin),
				Recent:  append([]RoundEvent(nil), recent...),
			}
			return &roundFault{
				err: se, round: st.Rounds, bid: bid, curPrio: curPrio,
				frontier: append([]uint32(nil), frontier...),
			}, nil
		}
		if r := ctl.aborted(); r != abortNone {
			// The abort raced with the round's completion: the traversal
			// never observed it, so the round's effects are fully applied.
			// Honor cancellation at this barrier; a late timeout is moot —
			// the round is done — so clear it and continue.
			if r == abortCancel {
				return nil, ctx.Err()
			}
			ctl.reset()
			ctl.beginRound(st.Rounds) // keep the watchdog timing this round's tail
		}
		if pull {
			st.PullRounds++
		}
		// One global synchronization per round: the sweep's join plus the
		// bulk bucket update (paper Figure 5, lines 12–13).
		st.GlobalSyncs++
		if pe := e.phase(PhaseUpdate, func() { e.src.update(updated) }); pe != nil {
			return &roundFault{err: pe, round: st.Rounds}, nil
		}
		ev := RoundEvent{
			Round:       st.Rounds,
			Bucket:      bid,
			Priority:    curPrio,
			Frontier:    len(frontier),
			Updated:     len(updated),
			Relaxations: rRelax,
			Processed:   rProc,
			FusedIters:  rFused,
			Pull:        pull,
			Wall:        time.Since(begin),
		}
		if trace {
			tr.Round(ev)
		}
		if keepRecent {
			if len(recent) == recentRounds {
				copy(recent, recent[1:])
				recent = recent[:recentRounds-1]
			}
			recent = append(recent, ev)
		}
		if o.Cfg.StuckRounds > 0 {
			// No-progress detector: the same bucket re-extracted with zero
			// relaxations for K consecutive rounds cannot converge — a
			// correct (bucketSource, traversal) pair either relaxes edges
			// or advances to another bucket, so this only fires on a
			// defective composition (or injected stall) and is terminal.
			if bid == lastBid && rRelax == 0 {
				if stuckRun == 0 {
					stuckSince = begin
				}
				stuckRun++
				if stuckRun >= o.Cfg.StuckRounds {
					ctl.endRound()
					return nil, &StuckError{
						Reason: StuckNoProgress, Round: st.Rounds, Bucket: bid,
						Priority: curPrio, Frontier: len(frontier),
						Elapsed: time.Since(stuckSince),
						Recent:  append([]RoundEvent(nil), recent...),
					}
				}
			} else {
				stuckRun = 0
			}
			lastBid = bid
		}
		ctl.endRound()
	}
}

// initialActive returns the initial active vertex set — Sources if given,
// otherwise every vertex with a non-null priority — validating priority
// signs along the way (only the scanned vertices can enter buckets, so the
// former O(V) validate pass is free here).
func (o *Ordered) initialActive() ([]uint32, error) {
	null := o.nullPrio()
	if o.Sources != nil {
		act := make([]uint32, 0, len(o.Sources))
		// A repeated source would enter the bins/buckets twice and could be
		// processed twice in the same bucket, inflating Processed and
		// corrupting constant-sum counts; build the active set deduplicated.
		var seen map[uint32]struct{}
		if len(o.Sources) > 1 {
			seen = make(map[uint32]struct{}, len(o.Sources))
		}
		for _, v := range o.Sources {
			if int(v) >= len(o.Prio) {
				return nil, fmt.Errorf("core: source vertex %d out of range (graph has %d vertices)", v, len(o.Prio))
			}
			p := o.Prio[v]
			if p == null {
				continue
			}
			if p < 0 {
				return nil, fmt.Errorf("core: vertex %d has negative priority %d (priorities must be non-negative)", v, p)
			}
			if seen != nil {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			}
			act = append(act, v)
		}
		return act, nil
	}
	var act []uint32
	for v, p := range o.Prio {
		if p == null {
			continue
		}
		if p < 0 {
			return nil, fmt.Errorf("core: vertex %d has negative priority %d (priorities must be non-negative)", v, p)
		}
		act = append(act, uint32(v))
	}
	return act, nil
}
