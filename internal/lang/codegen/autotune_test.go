package codegen

import (
	"context"
	"strings"
	"testing"

	"graphit/internal/autotune"
	"graphit/internal/core"
)

func TestPlanAutotuneSSSP(t *testing.T) {
	plan, err := Compile(readDSL(t, "sssp.gt"))
	if err != nil {
		t.Fatal(err)
	}
	g := planGraph(t)
	res, text, err := plan.Autotune(context.Background(), ExecOptions{
		Graph: g,
		Argv:  []string{"sssp", "-", "1"},
	}, autotune.Options{MaxTrials: 12, Seed: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) == 0 || len(res.Trials) > 12 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	for _, want := range []string{"configApplyPriorityUpdate(\"s1\"", "configApplyPriorityUpdateDelta", "configApplyDirection"} {
		if !strings.Contains(text, want) {
			t.Errorf("schedule text missing %s:\n%s", want, text)
		}
	}
	// The emitted schedule must itself resolve and execute.
	plan2, err := Compile(readDSL(t, "sssp.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan2.ApplySchedule(text); err != nil {
		t.Fatalf("autotuned schedule does not resolve: %v\n%s", err, text)
	}
	res2, err := plan2.Execute(ExecOptions{Graph: g, Argv: []string{"sssp", "-", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	want := dijkstra(g, 1)
	dist := res2.Vectors["dist"]
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("autotuned schedule broke correctness: dist[%d]=%d want %d", v, dist[v], want[v])
		}
	}
}

func TestPlanAutotuneKCoreNoCoarsening(t *testing.T) {
	plan, err := Compile(readDSL(t, "kcore.gt"))
	if err != nil {
		t.Fatal(err)
	}
	g := planSymGraph(t)
	res, text, err := plan.Autotune(context.Background(), ExecOptions{
		Graph: g,
		Argv:  []string{"kcore", "-"},
	}, autotune.Options{MaxTrials: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The queue forbids coarsening, so the tuner must never leave ∆=1.
	for _, tr := range res.Trials {
		if tr.Err == nil && tr.Config.Delta != 1 {
			t.Errorf("coarsened candidate %v evaluated for a no-coarsening queue", tr.Config)
		}
	}
	if !strings.Contains(text, `configApplyPriorityUpdateDelta("s1", "1")`) {
		t.Errorf("schedule text should pin ∆=1:\n%s", text)
	}
	// Constant-sum must be in the space (the kcore UDF qualifies).
	sawCS := false
	for _, tr := range res.Trials {
		if tr.Config.Strategy == core.LazyConstantSum {
			sawCS = true
		}
	}
	if !sawCS {
		t.Log("note: constant-sum not sampled in 10 trials (allowed but unlucky)")
	}
}

func TestPlanAutotuneRejectsExternLoops(t *testing.T) {
	plan, err := Compile(readDSL(t, "setcover.gt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.Autotune(context.Background(), ExecOptions{Graph: planSymGraph(t), Argv: []string{"sc", "-"}}, autotune.Options{MaxTrials: 3}); err == nil {
		t.Fatal("extern-driven loop should not be tunable")
	}
}
