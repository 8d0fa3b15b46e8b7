package core

import (
	"errors"
	"testing"

	"graphit/internal/bucket"
)

// passOp is a pass operator over the n vertices of a line graph (its edges
// unused), all at priority 1:
// the first pass counts each vertex's visits, and the second re-files it at
// its unchanged priority until its third visit, then takes it out of the
// queue. Each pass reports work per vertex.
func passOp(t *testing.T, n int, work int64) (*Ordered, []int) {
	t.Helper()
	prio := make([]int64, n)
	for v := range prio {
		prio[v] = 1
	}
	visits := make([]int, n)
	op := &Ordered{
		G: lineGraph(t, n), Prio: prio, Order: bucket.Increasing, Cfg: Config{Strategy: Lazy},
		Passes: []VertexPass{
			func(vs []uint32, _ int, _ *Updater) int64 {
				for _, v := range vs {
					visits[v]++
				}
				return work * int64(len(vs))
			},
			func(vs []uint32, _ int, u *Updater) int64 {
				for _, v := range vs {
					p := u.Priority(v)
					if visits[v] == 3 {
						p = Unreached
					}
					u.SetPriority(v, p)
				}
				return work * int64(len(vs))
			},
		},
	}
	return op, visits
}

// TestPassOperatorRefilesAndCounts: a vertex a pass re-files at its
// unchanged priority is dequeued again, the passes' work is counted as
// relaxations, every round joins once per pass, and the trace sees it all.
func TestPassOperatorRefilesAndCounts(t *testing.T) {
	op, visits := passOp(t, 4, 1)
	tr := &MemTracer{}
	op.Trace = tr
	st, err := op.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v, k := range visits {
		if k != 3 {
			t.Fatalf("vertex %d visited %d times, want 3 (visits %v)", v, k, visits)
		}
	}
	want := Stats{Rounds: 3, GlobalSyncs: 6, Relaxations: 24, Processed: 12, BucketInserts: 12}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if len(tr.Events) != 3 || tr.Events[0].Relaxations != 8 || tr.Events[0].Processed != 4 || tr.Events[0].Updated != 4 {
		t.Fatalf("trace events %+v", tr.Events)
	}
}

// TestPassOperatorNoProgress: passes that report no work while the same
// bucket keeps coming back trip the no-progress detector.
func TestPassOperatorNoProgress(t *testing.T) {
	op, _ := passOp(t, 4, 0)
	op.Cfg.StuckRounds = 2
	_, err := op.Run()
	var se *StuckError
	if !errors.As(err, &se) || se.Reason != StuckNoProgress || se.Round != 3 {
		t.Fatalf("expected a no-progress *StuckError at round 3, got %v", err)
	}
}
