package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// RunApprox executes the operator under *approximate* priority ordering —
// the execution model of Galois's ordered-list / OBIM scheduler that the
// paper compares against (§6, "Approximate Priority Ordering" in §7).
//
// Unlike the strict bucketed engines, workers never synchronize globally
// per priority level: each worker repeatedly grabs a batch from the lowest
// non-empty shared bucket and processes it immediately, so vertices of
// different priorities can be in flight at once. This trades
// work-efficiency (priority inversions cause redundant relaxations) for
// the absence of per-round barriers — exactly the tradeoff the paper
// describes for Galois. Only lower_first (min) operators are supported,
// matching Galois's lack of strict-priority algorithms like k-core.
func (o *Ordered) RunApprox() (Stats, error) {
	return o.RunApproxContext(context.Background())
}

// RunApproxContext is RunApprox under ctx, inside the envelope RunContext
// gives every run: the whole drain is one engine round (Stats.Rounds = 1),
// traced like any other, and every worker checks the run control at each
// batch boundary. Cancellation, or the round outliving Cfg.RoundTimeout,
// therefore stops the drain mid-round with partial Stats and ctx.Err() or a
// round-1 *StuckError; Cfg.StuckRounds cannot fire on a one-round run. A
// panic in the edge function is contained: all workers join, and the fault
// returns as a *PanicError with partial Stats.
func (o *Ordered) RunApproxContext(ctx context.Context) (Stats, error) {
	o.Cfg.normalize()
	if err := o.validate(); err != nil {
		return Stats{}, err
	}
	if o.Order != bucket.Increasing {
		return Stats{}, fmt.Errorf("core: approximate ordering supports lower_first operators only")
	}
	if o.FinalizeOnPop {
		return Stats{}, fmt.Errorf("core: approximate ordering cannot express finalize-on-dequeue algorithms (k-core, SetCover)")
	}
	return o.runEngine(ctx, "approx", o.buildApproxEngine)
}

// buildApproxEngine is buildEngine's sibling for approximate ordering: the
// shared queue is seeded with the active set, which its source hands to one
// round, and that round's traversal drains the queue on the run's executor.
// The updaters note every win with its bucket in their buffers.
func (o *Ordered) buildApproxEngine(sc *scratch, ex *parallel.Executor, active []uint32, ctl *runCtl) *engine {
	grain := o.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	ups := sc.getUpdaters(o, ex.Workers())
	for _, u := range ups {
		u.noteBkt = true
	}
	q := &approxQueue{minHint: math.MaxInt64}
	for _, v := range active {
		q.push(o.bucketOf(o.Prio[v]), v)
	}
	q.outstanding.Store(int64(len(active)))
	return &engine{
		o: o, ups: ups, ex: ex, ctl: ctl,
		src:  &approxSource{q: q, active: active},
		push: &approxTrav{sweeper: sweeper{o: o, ex: ex, sc: sc, ups: ups, grain: grain, ctl: ctl}, q: q},
	}
}

// approxSource hands the whole active set to one round, at its lowest
// bucket; the queue then holds all remaining work, so the run ends after it.
type approxSource struct {
	q      *approxQueue
	active []uint32
}

func (s *approxSource) next() (int64, []uint32) {
	active := s.active
	s.active = nil
	if len(active) == 0 {
		return bucket.NullBkt, nil
	}
	return s.q.minHint, active
}

func (*approxSource) update(ids []uint32) int { return len(ids) }

func (s *approxSource) finish(st *Stats) { st.BucketInserts += s.q.inserts }

// approxTrav is the approximate round: every worker drains the shared queue
// batch by batch until it is empty, the run control stops the run (a
// sibling's panic included), or the operator's Stop holds. Each batch
// reaches the fault hook as PhaseApproxBatch with the worker's batch index
// as its round.
type approxTrav struct {
	sweeper
	q    *approxQueue
	stop atomic.Bool // Stop held: siblings stop at their next batch
	body func(worker int)
}

func (t *approxTrav) relax(_, _ int64, _ []uint32) ([]uint32, bool) {
	if t.body == nil {
		t.body = t.drain
	}
	t.ex.Run(t.body)
	return nil, t.ctl.aborted() != abortNone
}

func (t *approxTrav) drain(worker int) {
	defer t.ctl.contain(worker)
	o, q, u := t.o, t.q, t.ups[worker]
	buf := make([]uint32, 0, t.grain)
	for batches := int64(0); !t.stop.Load() && !t.ctl.stopped(); {
		bin, items := q.popBatch(t.grain, buf[:0])
		if len(items) == 0 {
			if q.outstanding.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		batches++
		t.ctl.fireAt(PhaseApproxBatch, batches, worker)
		if o.Stop != nil && o.Stop(bin*o.Cfg.Delta) {
			t.stop.Store(true)
			return
		}
		u.curBin, u.curPrio = bin, bin*o.Cfg.Delta
		for _, v := range items {
			// Approximate stale filter: skip vertices whose priority has
			// moved to an earlier bucket (already handled); later buckets
			// still get processed — the priority inversion Galois
			// tolerates.
			p := atomicutil.Load(&o.Prio[v])
			b := o.bucketOf(p)
			if b != bucket.NullBkt && b >= bin {
				u.processed++
				o.sweepOut(v, p, u)
				if b > bin {
					u.inversions++
				}
			}
		}
		// Publish new work before retiring the batch, so outstanding can
		// never read zero while work exists.
		if len(u.out) > 0 {
			q.pushBatch(u.out, u.outBkt)
			u.out, u.outBkt = u.out[:0], u.outBkt[:0]
		}
		q.outstanding.Add(-int64(len(items)))
	}
}

// approxQueue is a shared bucket array guarded by a single mutex, with
// batched push/pop so the lock is taken once per batch — a deliberately
// simple model of Galois's distributed OBIM (each worker amortizes queue
// synchronization over a chunk of work, and ordering between in-flight
// chunks is only approximate).
type approxQueue struct {
	mu          sync.Mutex
	bins        [][]uint32
	minHint     int64 // no non-empty bucket lies below it
	outstanding atomic.Int64
	inserts     int64
}

func (q *approxQueue) push(bin int64, v uint32) {
	q.mu.Lock()
	q.pushLocked(bin, v)
	q.mu.Unlock()
}

func (q *approxQueue) pushLocked(bin int64, v uint32) {
	if bin < 0 {
		bin = 0
	}
	for int64(len(q.bins)) <= bin {
		q.bins = append(q.bins, nil)
	}
	q.bins[bin] = append(q.bins[bin], v)
	if bin < q.minHint {
		q.minHint = bin
	}
	q.inserts++
}

// pushBatch inserts vs[i] at bucket bins[i] and raises outstanding
// accordingly.
func (q *approxQueue) pushBatch(vs []uint32, bins []int64) {
	q.mu.Lock()
	for i, v := range vs {
		q.pushLocked(bins[i], v)
	}
	q.mu.Unlock()
	q.outstanding.Add(int64(len(vs)))
}

// popBatch removes up to max vertices from the lowest non-empty bucket,
// appending into dst. It returns the bucket id and the batch.
func (q *approxQueue) popBatch(max int, dst []uint32) (int64, []uint32) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for b := q.minHint; b < int64(len(q.bins)); b++ {
		bin := q.bins[b]
		if len(bin) == 0 {
			if b == q.minHint {
				q.minHint = b + 1
			}
			continue
		}
		take := len(bin)
		if take > max {
			take = max
		}
		cut := len(bin) - take
		dst = append(dst, bin[cut:]...)
		q.bins[b] = bin[:cut]
		return b, dst
	}
	return bucket.NullBkt, dst
}
