package core

import (
	"context"
	"fmt"
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

// RunApproxContext is RunApprox under a context: cancellation is checked at
// every batch boundary, halting all workers and returning the partial Stats
// together with ctx.Err(). The engine has no rounds, so Cfg.RoundTimeout and
// Cfg.StuckRounds are silently ignored: bound an approximate run with ctx.
//
// Panics in the edge function are contained like in the bucketed engine: all
// workers join, and the fault returns as a *PanicError with partial Stats.
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

	active, err := o.initialActive()
	if err != nil {
		return Stats{}, err
	}
	if len(active) == 0 {
		return Stats{}, nil
	}
	q := newApproxQueue(o, active)

	// The run's executor fixes the worker count up front and parks its
	// workers for reuse by later runs.
	ex := parallel.Acquire(o.Cfg.Workers)
	batch := o.Cfg.Grain
	if batch <= 0 {
		batch = parallel.DefaultGrain
	}

	var st Stats
	pe := o.approxPass(ctx, q, ex, newRunCtl(ctx), batch, &st)
	parallel.Release(ex)
	st.BucketInserts += q.inserts
	if pe != nil {
		return st, pe
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	return st, nil
}

// newApproxQueue builds the shared bucket queue over the active set.
func newApproxQueue(o *Ordered, active []uint32) *approxQueue {
	q := &approxQueue{}
	for _, v := range active {
		q.push(o.bucketOf(o.Prio[v]), v)
	}
	q.outstanding.Store(int64(len(active)))
	return q
}

// approxPass drains q on ex's workers until empty, stopped, or cancelled,
// folding counters into st. A panic on any worker is contained: siblings
// stop at their next batch boundary, all workers join, the executor stays
// reusable, and the fault is returned as a *PanicError (the panicked
// worker's uncommitted batch counters are lost — Stats stay partial).
func (o *Ordered) approxPass(ctx context.Context, q *approxQueue, ex *parallel.Executor, ctl *runCtl, batch int, st *Stats) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = asPanicError(PhaseApproxBatch, 0, r)
		}
	}()
	var stMu sync.Mutex
	var stopped atomic.Bool
	ex.Run(func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				// Stop siblings promptly: the panicked worker's in-flight
				// batch never retires its outstanding count, so without
				// this they would spin waiting for it forever.
				stopped.Store(true)
				panic(r)
			}
		}()
		u := &Updater{o: o, atomics: true}
		var pending []approxItem
		u.sink = func(v uint32, newPrio int64) {
			pending = append(pending, approxItem{bin: o.bucketOf(newPrio), v: v})
		}
		var batches int64
		buf := make([]uint32, 0, batch)
		for {
			if stopped.Load() {
				break
			}
			if ctx.Err() != nil {
				stopped.Store(true)
				break
			}
			bin, items := q.popBatch(batch, buf[:0])
			if len(items) == 0 {
				if q.outstanding.Load() == 0 {
					break
				}
				runtime.Gosched()
				continue
			}
			batches++
			ctl.fireAt(PhaseApproxBatch, batches, worker)
			if o.Stop != nil && o.Stop(bin*o.Cfg.Delta) {
				q.outstanding.Add(-int64(len(items)))
				stopped.Store(true)
				break
			}
			u.curBin, u.curPrio = bin, bin*o.Cfg.Delta
			for _, v := range items {
				// Approximate stale filter: skip vertices whose
				// priority has moved to an earlier bucket (already
				// handled); later buckets still get processed — the
				// priority inversion Galois tolerates.
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
			// Publish new work before retiring the batch, so outstanding
			// can never read zero while work exists.
			if len(pending) > 0 {
				q.pushBatch(pending)
				pending = pending[:0]
			}
			q.outstanding.Add(-int64(len(items)))
		}
		stMu.Lock()
		st.Relaxations += u.relaxations
		st.Inversions += u.inversions
		st.Processed += u.processed
		st.Rounds += batches // "rounds" = batches: no global rounds exist
		stMu.Unlock()
	})
	return nil
}

type approxItem struct {
	bin int64
	v   uint32
}

// approxQueue is a shared bucket array guarded by a single mutex, with
// batched push/pop so the lock is taken once per batch — a deliberately
// simple model of Galois's distributed OBIM (each worker amortizes queue
// synchronization over a chunk of work, and ordering between in-flight
// chunks is only approximate).
type approxQueue struct {
	mu          sync.Mutex
	bins        [][]uint32
	minHint     int64
	outstanding atomic.Int64
	inserts     int64
}

func (q *approxQueue) push(bin int64, v uint32) {
	if bin < 0 {
		bin = 0
	}
	q.mu.Lock()
	q.pushLocked(bin, v)
	q.mu.Unlock()
}

func (q *approxQueue) pushLocked(bin int64, v uint32) {
	for int64(len(q.bins)) <= bin {
		q.bins = append(q.bins, nil)
	}
	q.bins[bin] = append(q.bins[bin], v)
	if bin < q.minHint {
		q.minHint = bin
	}
	q.inserts++
}

// pushBatch inserts items and raises outstanding accordingly.
func (q *approxQueue) pushBatch(items []approxItem) {
	q.mu.Lock()
	for _, it := range items {
		bin := it.bin
		if bin < 0 {
			bin = 0
		}
		q.pushLocked(bin, it.v)
	}
	q.mu.Unlock()
	q.outstanding.Add(int64(len(items)))
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
