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
// eager thread-local bins and the lazy Julienne buckets (which the
// constant-sum path shares) implement it. Together with traversal it is the
// engine's pluggable axis pair — every strategy in the scheduling space is
// one (bucketSource, traversal) composition run by the same round loop.
type bucketSource interface {
	// next extracts the next non-empty bucket and its frontier, or
	// (bucket.NullBkt, nil) when the queue is exhausted.
	next() (int64, []uint32)
	// update bulk-moves the round's changed vertices to their new buckets
	// (no-op for eager, whose traversal re-buckets inline) and returns how
	// many distinct vertices the round moved.
	update(ids []uint32) int
	// finish folds the source's internal counters into st.
	finish(st *Stats)
}

// traversal abstracts one round's edge sweep in one direction — SparsePush
// (pushTrav, the lane kernel), DensePull (pullTrav), the constant-sum
// histogram reduction, or a pass operator's vertex passes (passTrav). It
// returns the vertices whose priorities changed (for bucketSource.update)
// and whether the sweep observed a cooperative abort (round timeout or
// mid-round cancellation) and stopped early — in which case its effects may
// be partial and updated must be discarded.
type traversal interface {
	relax(bid, curPrio int64, frontier []uint32) (updated []uint32, aborted bool)
}

// engine is one composed bucketSource and its traversals plus the
// per-worker updaters whose counters the round loop folds. push is nil
// under DensePull and pull under SparsePush; a Hybrid schedule has both and
// picks per round (relax). All parallel phases run on ex, the run's private
// executor, whose fixed worker count sized ups; ctl is the run's shared
// fault-control block (abort flag, injection hook).
type engine struct {
	o             *Ordered
	src           bucketSource
	push, pull    traversal
	pullThreshold int64
	ups           []*Updater
	ex            *parallel.Executor
	ctl           *runCtl
}

// Run executes the ordered operator to completion and returns its counters.
func (o *Ordered) Run() (Stats, error) {
	return o.RunContext(context.Background())
}

// RunContext executes the ordered operator under ctx. Cancellation is
// cooperative: the engine stops at the next round barrier or, mid-round, at
// the next chunk boundary of a traversal phase (a lane drain's next abort
// poll, an approximate drain's next batch), so a cancelled or expired
// context halts the run promptly and returns the partial Stats accumulated
// so far together with ctx.Err().
//
// Faults are contained: a panic in a traversal phase (typically a user
// edge function) is recovered and returned as a *PanicError, and a round
// exceeding Cfg.RoundTimeout or stalling for Cfg.StuckRounds rounds is
// aborted with a *StuckError — in both cases with partial Stats and the
// process, executor, and pools intact. A contained fault ends the run; the
// engine never retries (qexec reruns a faulted request from scratch on its
// fallback schedule).
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
	return o.runEngine(ctx, o.Cfg.Strategy.String(), o.buildEngine)
}

// runEngine is the one run envelope of RunContext and RunApproxContext: it
// builds the active set, resolves the tracer, acquires the executor, arms
// the run control, composes the engine with build on pooled scratch, runs
// the shared round loop and releases everything in order. strategy names
// the run in its RunStart record.
func (o *Ordered) runEngine(ctx context.Context, strategy string, build func(*scratch, *parallel.Executor, []uint32, *runCtl) *engine) (Stats, error) {
	active, err := o.initialActive()
	if err != nil {
		return Stats{}, err
	}
	tr := o.tracer(ctx)
	_, isNop := tr.(NopTracer)
	trace := !isNop
	info := o.runInfo(strategy, len(active))
	if len(active) == 0 {
		if trace {
			tr.RunStart(info)
			tr.RunEnd(Stats{}, nil)
		}
		return Stats{}, nil
	}

	// The run's private executor: a persistent worker pool with a count
	// fixed at Cfg.Workers (default GOMAXPROCS) for the whole run, so
	// concurrent runs with different counts are isolated and per-round
	// parallel phases reuse parked workers instead of spawning goroutines.
	ex := parallel.Acquire(o.Cfg.Workers)
	ctl := newRunCtl(ctx)
	disarm := ctl.arm(ctx, o.Cfg.RoundTimeout)
	sc := getScratch()
	e := build(sc, ex, active, ctl)
	if trace {
		tr.RunStart(info)
	}
	var st Stats
	runErr := e.run(ctx, tr, trace, &st)
	e.src.finish(&st)
	disarm()
	if trace {
		tr.RunEnd(st, runErr)
	}
	// Not deferred on purpose: pooling must happen only after every
	// parallel phase has joined, and only clean scratch is pooled.
	if ctl.clean() {
		putScratch(sc)
	}
	parallel.Release(ex)
	return st, runErr
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

func (o *Ordered) runInfo(strategy string, frontier int) RunInfo {
	return RunInfo{
		Strategy:    strategy,
		Direction:   o.Cfg.Direction.String(),
		Delta:       o.Cfg.Delta,
		NumVertices: o.G.NumVertices(),
		NumEdges:    int64(o.G.NumEdges()),
		Frontier:    frontier,
	}
}

// buildEngine composes the schedule's bucket source and traversals on sc
// and ex — the one composition RunContext and Manual share — and seeds the
// source with the initial active set. Per-worker updaters are sized from
// ex's immutable worker count, the count every traversal phase runs with.
// The strategy decides only the source, the updaters' sink and the
// traversals' filter bit; the direction decides the traversals. A pass
// operator (Ordered.Passes) and constant-sum each bring their own traversal.
func (o *Ordered) buildEngine(sc *scratch, ex *parallel.Executor, active []uint32, ctl *runCtl) *engine {
	n, w := o.G.NumVertices(), ex.Workers()
	grain := o.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	ups := sc.getUpdaters(o, w)
	e := &engine{o: o, ups: ups, ex: ex, ctl: ctl, pullThreshold: int64(o.G.NumEdges()) / 20}
	s := sweeper{o: o, ex: ex, sc: sc, ups: ups, grain: grain, ctl: ctl}
	var bins []*bucket.LocalBins
	switch {
	case o.Cfg.Strategy == EagerWithFusion || o.Cfg.Strategy == EagerNoFusion:
		bins = sc.getBins(w)
		for i, u := range ups {
			u.bins = bins[i]
		}
		for i, v := range active {
			bins[i%len(bins)].Insert(o.bucketOf(o.Prio[v]), v)
		}
		e.src = &eagerBins{bins: bins, sc: sc}
		s.filter = true
	case o.Cfg.Strategy == LazyConstantSum:
		src := o.newLazySource(active)
		e.src, e.push = &filedSource{*src}, &constSumTrav{sweeper: s, hist: sc.getHist(n, w), lz: src.lz}
		return e
	case o.Passes != nil:
		e.src, e.push = o.newLazySource(active), &passTrav{sweeper: s}
		return e
	default: // Lazy
		e.src = o.newLazySource(active)
	}
	if o.Cfg.Direction != DensePull {
		e.push = &pushTrav{sweeper: s, bins: bins, fusion: o.Cfg.Strategy == EagerWithFusion}
	}
	if o.Cfg.Direction != SparsePush {
		e.pull = &pullTrav{sweeper: s, inFron: sc.getDense(n)}
	}
	return e
}

// relax runs one round's sweep in the direction the schedule picks for it:
// always push, always pull, or under Hybrid the direction optimizer's
// per-round choice (Ligra/Julienne), pulling when the frontier's out-degree
// volume exceeds |E|/20 — at the cost of an out-degree sum over the
// frontier, the overhead the paper calls out in Julienne's SSSP (§6.2).
func (e *engine) relax(bid, curPrio int64, frontier []uint32) (updated []uint32, pull, aborted bool) {
	pull = e.push == nil || e.pull != nil && e.o.G.TotalOutDegree(frontier)+int64(len(frontier)) > e.pullThreshold
	for _, u := range e.ups {
		u.curBin, u.curPrio, u.atomics = bid, curPrio, !pull
	}
	if pull {
		updated, aborted = e.pull.relax(bid, curPrio, frontier)
	} else {
		updated, aborted = e.push.relax(bid, curPrio, frontier)
	}
	return updated, pull, aborted
}

// phase runs one engine phase with panic containment: the injection hook
// fires first (the round loop's checkpoint, as ctl.worker), then fn; a
// panic from either — or re-raised by the executor from a worker — is
// recorded in the run control and converted to a *PanicError naming the
// phase and round.
func (e *engine) phase(name string, fn func()) (pe *PanicError) {
	ctl := e.ctl
	defer func() {
		if r := recover(); r != nil {
			ctl.abort(abortPanic)
			pe = asPanicError(name, ctl.round.Load(), r)
		}
	}()
	ctl.fire(name, ctl.worker)
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
// cooperative cancellation check at every round barrier and the run
// control's stop question at every round's end. Every error it returns ends
// the run: a contained *PanicError, a *StuckError from the round deadline
// or the no-progress detector, or the context's error.
func (e *engine) run(ctx context.Context, tr Tracer, trace bool, st *Stats) error {
	o := e.o
	ctl := e.ctl
	keepRecent := o.Cfg.RoundTimeout > 0 || o.Cfg.StuckRounds > 0
	var recent []RoundEvent
	stuckRun := 0
	lastBid := int64(math.MinInt64)
	var stuckSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ctl.beginRound(st.Rounds + 1)
		var bid int64
		var frontier []uint32
		if pe := e.phase(PhaseNext, func() { bid, frontier = e.src.next() }); pe != nil {
			return pe
		}
		if bid == bucket.NullBkt {
			return nil
		}
		curPrio := bid * o.Cfg.Delta
		if o.Stop != nil && o.Stop(curPrio) {
			return nil
		}
		st.Rounds++
		var begin time.Time
		if trace || keepRecent {
			begin = time.Now()
		}
		var updated []uint32
		var pull, aborted bool
		pe := e.phase(PhaseRelax, func() { updated, pull, aborted = e.relax(bid, curPrio, frontier) })
		rRelax, rProc, rFused := e.fold(st)
		if pe != nil {
			return pe
		}
		if aborted {
			return e.abortErr(ctx, st.Rounds, bid, curPrio, len(frontier), recent)
		}
		if pull {
			st.PullRounds++
		}
		// One global synchronization per round: the sweep's join plus the
		// bulk bucket update (paper Figure 5, lines 12–13), or one per pass.
		st.GlobalSyncs += int64(max(1, len(o.Passes)))
		var nUpdated int
		if pe := e.phase(PhaseUpdate, func() { nUpdated = e.src.update(updated) }); pe != nil {
			return pe
		}
		if ctl.stopped() {
			return e.abortErr(ctx, st.Rounds, bid, curPrio, len(frontier), recent)
		}
		ev := RoundEvent{
			Round:       st.Rounds,
			Bucket:      bid,
			Priority:    curPrio,
			Frontier:    len(frontier),
			Updated:     nUpdated,
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
					return &StuckError{
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
	}
}

// abortErr is the error of a round the run control stopped: the context's
// error after a cancellation, else a timeout *StuckError naming the round.
func (e *engine) abortErr(ctx context.Context, round, bid, prio int64, frontier int, recent []RoundEvent) error {
	if e.ctl.aborted() == abortCancel {
		return ctx.Err()
	}
	return &StuckError{
		Reason: StuckRoundTimeout, Round: round, Bucket: bid,
		Priority: prio, Frontier: frontier,
		Elapsed: e.ctl.elapsed(),
		Recent:  append([]RoundEvent(nil), recent...),
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
	act := make([]uint32, 0, len(o.Prio)) // full scans serve k-core and SetCover, where all are active
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
