package algo

import (
	"context"
	"fmt"
	"math"

	"graphit"
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// SetCoverResult carries the output of approximate set cover.
type SetCoverResult struct {
	// Chosen[v] reports whether set v is in the cover.
	Chosen []bool
	// CoveredBy[e] is the set that covers element e.
	CoveredBy []int64
	// NumChosen is the cover's cost (unit costs, paper §6.1).
	NumChosen int
	Stats     graphit.Stats
}

// SetCover computes an approximate minimum set cover on a symmetric graph,
// in the vertex-domination form the paper's frameworks evaluate: every
// vertex is both an element and a set that covers itself and its neighbors.
//
// The algorithm is the bucketed, nearly-independent greedy of Blelloch et
// al. as implemented in Julienne (paper §6.1): sets are bucketed by their
// number of uncovered elements and processed from the highest bucket
// (higher_first order). Each round, the ready sets race to reserve their
// uncovered elements with an atomic write-min of their id; a set that
// reserves at least half of the current bucket's value commits (joins the
// cover), while the rest release their reservations and are re-bucketed by
// their recomputed coverage — the lazy bucket update approach, since each
// set moves buckets at most once per round.
//
// Like k-core, set cover tolerates no priority coarsening; the schedule's
// ∆ must be 1. The schedule's NumBuckets and Grain options apply.
func SetCover(g *graphit.Graph, sched graphit.Schedule) (*SetCoverResult, error) {
	return SetCoverContext(context.Background(), g, sched)
}

// SetCoverContext is SetCover under a context: cancellation is checked at
// every round barrier and returns the partial (possibly incomplete) cover
// together with ctx.Err().
func SetCoverContext(ctx context.Context, g *graphit.Graph, sched graphit.Schedule) (*SetCoverResult, error) {
	if !g.Symmetric() {
		return nil, fmt.Errorf("algo: set cover requires a symmetrized graph")
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	if cfg.Delta > 1 {
		return nil, fmt.Errorf("algo: set cover does not allow priority coarsening (∆=%d)", cfg.Delta)
	}
	n := g.NumVertices()

	const unreserved = int64(math.MaxInt64)
	const uncoveredMark = int64(-1)
	coveredBy := make([]int64, n) // element -> committed set
	reserve := make([]int64, n)   // element -> reserving set this round
	prio := make([]int64, n)      // set -> # uncovered elements it covers
	chosen := make([]bool, n)
	for v := 0; v < n; v++ {
		coveredBy[v] = uncoveredMark
		reserve[v] = unreserved
		prio[v] = int64(g.OutDegree(graphit.VertexID(v))) + 1 // neighbors + self
	}

	bktOf := func(v uint32) int64 {
		if p := prio[v]; p > 0 {
			return p
		}
		return bucket.NullBkt
	}
	lz := bucket.NewLazy(n, bucket.Decreasing, cfg.NumBuckets, bktOf)

	var st graphit.Stats
	elementsOf := func(v uint32, f func(e uint32)) {
		f(v)
		for _, e := range g.OutNeigh(v) {
			f(e)
		}
	}

	var runErr error
	for {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		bid, sets := lz.Next()
		if bid == bucket.NullBkt {
			break
		}
		st.Rounds++
		// Phase 1: reservation. Every ready set write-mins its id onto its
		// uncovered elements; the smallest set id wins each element.
		parallel.ForChunks(len(sets), cfg.Grain, func(lo, hi, _ int) {
			for _, s := range sets[lo:hi] {
				elementsOf(s, func(e uint32) {
					if atomicutil.Load(&coveredBy[e]) == uncoveredMark {
						atomicutil.WriteMin(&reserve[e], int64(s))
					}
				})
			}
		})
		// Phase 2: commit or release. A set that reserved at least half of
		// the bucket's value keeps its elements; others are re-bucketed by
		// their true remaining coverage.
		threshold := (bid + 1) / 2
		updated := make([][]uint32, parallel.Workers())
		parallel.ForChunks(len(sets), cfg.Grain, func(lo, hi, worker int) {
			for _, s := range sets[lo:hi] {
				var won int64
				elementsOf(s, func(e uint32) {
					if atomicutil.Load(&coveredBy[e]) == uncoveredMark &&
						atomicutil.Load(&reserve[e]) == int64(s) {
						won++
					}
				})
				out := &updated[worker]
				if won >= threshold {
					chosen[s] = true
					elementsOf(s, func(e uint32) {
						if atomicutil.Load(&reserve[e]) == int64(s) {
							atomicutil.Store(&coveredBy[e], int64(s))
						}
					})
					prio[s] = 0 // done; never re-bucketed
				} else {
					// Recompute true uncovered coverage; note elements
					// committed this round by other sets read as covered.
					var c int64
					elementsOf(s, func(e uint32) {
						if atomicutil.Load(&coveredBy[e]) == uncoveredMark {
							c++
						}
					})
					prio[s] = c
					if c > 0 {
						*out = append(*out, s)
					}
				}
			}
		})
		// Phase 3: release all reservations made this round. Each set
		// clears only the elements it reserved: the smallest-id reserver of
		// e is itself a ready set that visits e here, so every reservation
		// is still cleared, and the other visitors only read.
		parallel.ForChunks(len(sets), cfg.Grain, func(lo, hi, _ int) {
			for _, s := range sets[lo:hi] {
				elementsOf(s, func(e uint32) {
					if atomicutil.Load(&reserve[e]) == int64(s) {
						atomicutil.Store(&reserve[e], unreserved)
					}
				})
			}
		})
		st.GlobalSyncs += 3
		var upd []uint32
		for _, u := range updated {
			upd = append(upd, u...)
		}
		lz.UpdateBuckets(upd)
	}

	num := 0
	for _, c := range chosen {
		if c {
			num++
		}
	}
	st.BucketInserts = lz.Inserts
	st.WindowAdvances = lz.Rebuckets
	return &SetCoverResult{
		Chosen:    chosen,
		CoveredBy: coveredBy,
		NumChosen: num,
		Stats:     st,
	}, runErr
}
