package codegen

import (
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/parallel"
)

// runExternLoop executes an extern-driven ordered loop (the escape hatch
// the paper's SetCover uses): each round dequeues a bucket and applies
// host-bound extern functions to its vertices under lazy bucketing.
//
//   - applyExtern(f): f(v) is called for every dequeued vertex (parallel;
//     the host function must be safe for concurrent use).
//   - applyExternReduce(f): f(v) returns the vertex's new priority; changed
//     vertices are re-bucketed (INT_MIN / INT_MAX mark removal).
//
// The loop runs on an executor checked out for it alone; the label's
// schedule gives its size, the chunk grain and the lazy bucket count.
func (m *machine) runExternLoop(lp *irLoop) core.Stats {
	prio := m.vecs[lp.prio]
	order, null := bucket.Increasing, lp.null.v
	if !lp.lowerFirst {
		order = bucket.Decreasing
	}
	bktOf := func(v uint32) int64 {
		if p := prio[v]; p != null {
			return p
		}
		return bucket.NullBkt
	}
	cfg := lp.sched
	lz := bucket.NewLazy(len(prio), order, cfg.NumBuckets, bktOf)

	var st core.Stats
	ex := parallel.Acquire(cfg.Workers)
	defer parallel.Release(ex)
	for {
		bid, verts := lz.Next()
		if bid == bucket.NullBkt {
			break
		}
		st.Rounds++
		var updated []uint32
		for i, ext := range lp.phases {
			fn, reduce, outs := m.exts[ext], lp.reduce[i], make([][]uint32, ex.Workers())
			ex.ForChunks(len(verts), cfg.Grain, func(lo, hi, worker int) {
				for _, v := range verts[lo:hi] {
					np := fn(int64(v))
					if !reduce || np == atomicutil.Load(&prio[v]) {
						continue
					}
					atomicutil.Store(&prio[v], np)
					if np != null {
						outs[worker] = append(outs[worker], v)
					}
				}
			})
			for _, o := range outs {
				updated = append(updated, o...)
			}
			st.GlobalSyncs++
		}
		st.Processed += int64(len(verts))
		lz.UpdateBuckets(updated)
	}
	st.BucketInserts = lz.Inserts
	st.WindowAdvances = lz.Rebuckets
	return st
}
