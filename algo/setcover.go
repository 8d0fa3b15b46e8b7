package algo

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"

	"graphit"
	"graphit/internal/atomicutil"
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
// ∆ must be 1. It runs on the ordered engine under lazy SparsePush whatever
// strategy and direction the schedule names; the schedule's NumBuckets,
// Grain, NumWorkers, RoundTimeout and StuckRounds options apply.
func SetCover(g *graphit.Graph, sched graphit.Schedule) (*SetCoverResult, error) {
	return SetCoverContext(context.Background(), g, sched)
}

// SetCoverContext is SetCover under the engine's run contract: it halts at
// the next pass chunk on cancellation, and on a contained panic or stall
// (*graphit.PanicError, *graphit.StuckError), returning the partial cover
// with the error; a Tracer carried by ctx observes its rounds.
//
// Each round runs two vertex passes over the bucket's ready sets, and every
// set reads only its live elements, as in Julienne: a set's first visit
// reads its CSR range plus itself and packs the elements still uncovered
// into a list of its own (carved from its worker's append-only slab, so the
// run's worker count is fixed here; the graph is never modified), and every
// later pass re-packs that list in place. Phase 1 write-mins the set's id
// onto each live element while packing. Phase 2 counts the elements the
// set won; a set that commits covers them and clears its reservations in
// the same pass, and one that does not clears its reservations while
// recounting and re-packing. Only a set itself ever tests an element's
// reservation against its own id, so no third release phase is needed. A
// set's priority is its packed length (degree+1 before its first visit,
// NullMax once done).
//
// At one worker the cover is deterministic. Stats.Relaxations counts
// element visits (every list entry either phase reads), Stats.Processed the
// dequeued sets.
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
	const slabChunk = 1 << 14     // entries per slab allocation
	coveredBy := make([]int64, n) // element -> committed set
	reserve := make([]int64, n)   // element -> reserving set this round
	prio := make([]int64, n)      // set -> packed length
	for v := range coveredBy {
		coveredBy[v], reserve[v] = uncoveredMark, unreserved
		prio[v] = int64(g.OutDegree(uint32(v))) + 1 // neighbors + self
	}
	chosen := make([]bool, n)
	// live[s] is set s's packed list: the elements still uncovered when s
	// was last visited, nil before its first visit.
	live := make([][]uint32, n)
	type coverWorker struct {
		slab []uint32 // current slab chunk; first visits pack into its tail
		_    [64]byte // keeps workers' slabs off one cache line
	}
	workers := make([]coverWorker, cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0)))

	// Phase 1: reserve and pack. Every ready set write-mins its id onto its
	// uncovered elements (the smallest set id wins each) and keeps only
	// those in its list. Sets commit only in phase 2, so coveredBy is read
	// plainly here.
	reservePhase := func(sets []uint32, worker int, _ *graphit.Queue) (visits int64) {
		w := &workers[worker]
		for _, s := range sets {
			src := live[s]
			dst, first := src[:0], src == nil // a re-pack overwrites what it has read
			if first {
				// The CSR range plus s itself, packed into this worker's slab.
				src = g.OutNeigh(s)
				if cap(w.slab)-len(w.slab) < len(src)+1 {
					w.slab = make([]uint32, 0, max(slabChunk, len(src)+1))
				}
				dst = w.slab[len(w.slab):]
				visits++
				if coveredBy[s] == uncoveredMark {
					atomicutil.WriteMin(&reserve[s], int64(s))
					dst = append(dst, s)
				}
			}
			for _, e := range src {
				if coveredBy[e] == uncoveredMark {
					atomicutil.WriteMin(&reserve[e], int64(s))
					dst = append(dst, e)
				}
			}
			visits += int64(len(src))
			if first {
				w.slab = w.slab[:len(w.slab)+len(dst)]
			}
			live[s] = dst
		}
		return visits
	}
	// Phase 2: a set that reserved at least half of the bucket's value
	// commits; the rest are re-bucketed by their true remaining coverage.
	commitPhase := func(sets []uint32, _ int, q *graphit.Queue) (visits int64) {
		threshold := (q.GetCurrentPriority() + 1) / 2
		for _, s := range sets {
			l, id := live[s], int64(s)
			visits += 2 * int64(len(l))
			var won int64
			for _, e := range l {
				if atomicutil.Load(&reserve[e]) == id {
					won++
				}
			}
			if won >= threshold {
				// Releasing as it covers leaves no reservation behind, so
				// every round starts from a clear reserve array.
				chosen[s] = true
				for _, e := range l {
					if atomicutil.Load(&reserve[e]) == id {
						atomicutil.Store(&coveredBy[e], id)
						atomicutil.Store(&reserve[e], unreserved)
					}
				}
				q.SetPriority(s, graphit.NullMax) // done; never re-bucketed
				continue
			}
			// An element s holds is uncovered (only s could cover it);
			// elements other sets commit this round read as covered.
			k := 0
			for _, e := range l {
				if atomicutil.Load(&reserve[e]) == id {
					atomicutil.Store(&reserve[e], unreserved)
				} else if atomicutil.Load(&coveredBy[e]) != uncoveredMark {
					continue
				}
				l[k] = e
				k++
			}
			live[s] = l[:k]
			np := graphit.NullMax
			if k > 0 {
				np = int64(k)
			}
			q.SetPriority(s, np)
		}
		return visits
	}

	op := &graphit.Ordered{G: g, Prio: prio, Order: graphit.HigherFirst,
		Passes: []graphit.VertexPass{reservePhase, commitPhase}}
	sched = sched.ConfigApplyPriorityUpdate("lazy").ConfigApplyDirection("SparsePush").ConfigNumWorkers(len(workers))
	st, err := graphit.RunOrderedContext(ctx, op, sched)
	if err != nil && !halted(ctx, err) {
		return nil, err
	}
	num := 0
	for _, c := range chosen {
		if c {
			num++
		}
	}
	return &SetCoverResult{
		Chosen:    chosen,
		CoveredBy: coveredBy,
		NumChosen: num,
		Stats:     st,
	}, err
}
