package codegen

import (
	"errors"
	"math"
	"strings"
	"testing"

	"graphit/internal/core"
	"graphit/internal/graph"
)

// fiveSetCover runs setcover.gt under schedule (if any) on five 3-element
// sets over nine elements, m1 m2 x n1 n2 y s1 s2 s3:
//
//	Z(0)={m1,m2,x} Y(1)={n1,n2,y} M(2)={m1,m2,s1} N(3)={n1,n2,s2} S(4)={s1,s2,s3}
//
// Each vertex of the graph has out-degree 3, so every set starts in bucket
// 3. Round 1 commits Z and Y; S wins only s3, so it fails to commit, yet
// keeps all three elements and must be re-filed at its unchanged priority.
// fault, if set, may replace externs before the run. It returns the result
// and the set covering each element (-1 if none).
func fiveSetCover(t *testing.T, schedule string, fault func(map[string]ExternFunc)) (*ExecResult, []int64, error) {
	t.Helper()
	sets := [][]int64{{0, 1, 2}, {3, 4, 5}, {0, 1, 6}, {3, 4, 7}, {6, 7, 8}}
	var edges []graph.Edge
	for s := uint32(0); s < 5; s++ {
		for d := uint32(1); d <= 3; d++ {
			edges = append(edges, graph.Edge{Src: s, Dst: (s + d) % 5})
		}
	}
	g, err := graph.Build(edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(readDSL(t, "setcover.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if schedule != "" {
		if err := plan.ApplySchedule(schedule); err != nil {
			t.Fatal(err)
		}
	}
	coveredBy, reserve := make([]int64, 9), make([]int64, 9)
	for e := range coveredBy {
		coveredBy[e], reserve[e] = -1, math.MaxInt64
	}
	prio := []int64{3, 3, 3, 3, 3} // the host's mirror of cover_count
	// The five sets fit in one chunk, so the phases run on one goroutine.
	externs := map[string]ExternFunc{
		"reserve_elements": func(a ...int64) int64 {
			for _, e := range sets[a[0]] {
				if coveredBy[e] < 0 && a[0] < reserve[e] {
					reserve[e] = a[0]
				}
			}
			return 0
		},
		"commit_or_release": func(a ...int64) int64 {
			s, won, left := a[0], int64(0), int64(0)
			for _, e := range sets[s] {
				if coveredBy[e] < 0 && reserve[e] == s {
					won++
				}
			}
			if won >= (prio[s]+1)/2 {
				for _, e := range sets[s] {
					if reserve[e] == s {
						coveredBy[e] = s
					}
				}
				prio[s] = core.NullMax
				return core.NullMax
			}
			for _, e := range sets[s] {
				if coveredBy[e] < 0 {
					left++
				}
			}
			if prio[s] = left; left == 0 {
				prio[s] = core.NullMax
			}
			return prio[s]
		},
		"release_reservations": func(a ...int64) int64 {
			for _, e := range sets[a[0]] {
				if reserve[e] == a[0] {
					reserve[e] = math.MaxInt64
				}
			}
			return 0
		},
	}
	if fault != nil {
		fault(externs)
	}
	res, err := plan.Execute(ExecOptions{Graph: g, Argv: []string{"setcover", "-"}, Externs: externs})
	return res, coveredBy, err
}

// TestExternLoopRefilesUnchangedPriority: a set whose reduce phase returns
// its current priority stays queued, so S is visited again and s3 covered.
func TestExternLoopRefilesUnchangedPriority(t *testing.T) {
	res, coveredBy, err := fiveSetCover(t, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for e, s := range coveredBy {
		if s < 0 {
			t.Fatalf("element %d left uncovered (covered_by %v)", e, coveredBy)
		}
	}
	if res.Stats.Rounds != 3 || res.Stats.Processed != 8 {
		t.Fatalf("rounds=%d processed=%d, want 3 rounds dequeuing 5+1+2 sets", res.Stats.Rounds, res.Stats.Processed)
	}
}

// TestExternLoopScheduleOnFirstLabeledPhase: the loop's schedule is the one
// on its first labeled phase, and a schedule on another phase is an error.
func TestExternLoopScheduleOnFirstLabeledPhase(t *testing.T) {
	res, _, err := fiveSetCover(t, `program->configNumBuckets("s1", "1");`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One open bucket: reaching bucket 1 after bucket 3 advances the window.
	if res.Stats.WindowAdvances == 0 {
		t.Fatalf("configNumBuckets on s1 was not applied: %+v", res.Stats)
	}
	_, _, err = fiveSetCover(t, `program->configNumBuckets("s2", "1");`, nil)
	if err == nil || !strings.Contains(err.Error(), `"s2"`) {
		t.Fatalf("a schedule on phase s2 ran; got error %v", err)
	}
}

// TestExternLoopPanicIsContained: a panicking host function ends the run
// with a *core.PanicError instead of unwinding through Execute.
func TestExternLoopPanicIsContained(t *testing.T) {
	_, _, err := fiveSetCover(t, "", func(ext map[string]ExternFunc) {
		ext["release_reservations"] = func(...int64) int64 { panic("host fault") }
	})
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Value != "host fault" || pe.Round != 1 {
		t.Fatalf("expected a round-1 *core.PanicError, got %v", err)
	}
}
