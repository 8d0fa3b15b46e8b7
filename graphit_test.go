package graphit_test

import (
	"strings"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
)

func smallGraph(t *testing.T) *graphit.Graph {
	t.Helper()
	g, err := graphit.RMAT(graphit.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScheduleFluentAPI(t *testing.T) {
	s := graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate("lazy").
		ConfigApplyPriorityUpdateDelta(8).
		ConfigBucketFusionThreshold(100).
		ConfigNumBuckets(64).
		ConfigApplyDirection("DensePull").
		ConfigApplyParallelization(32).
		ConfigNumWorkers(2)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Delta != 8 || cfg.NumBuckets != 64 || cfg.Grain != 32 || cfg.Workers != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	if !strings.Contains(s.String(), "lazy") {
		t.Errorf("String() = %q", s)
	}
}

func TestScheduleErrorAccumulation(t *testing.T) {
	cases := []graphit.Schedule{
		graphit.DefaultSchedule().ConfigApplyPriorityUpdate("nope"),
		graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(0),
		graphit.DefaultSchedule().ConfigBucketFusionThreshold(0),
		graphit.DefaultSchedule().ConfigNumBuckets(-1),
		graphit.DefaultSchedule().ConfigApplyDirection("Up"),
		graphit.DefaultSchedule().ConfigApplyParallelization(0),
		graphit.DefaultSchedule().ConfigNumWorkers(-1),
	}
	for i, s := range cases {
		if s.Err() == nil {
			t.Errorf("case %d: expected an accumulated error", i)
		}
		// The first error wins and survives further chaining.
		chained := s.ConfigApplyPriorityUpdateDelta(4)
		if chained.Err() == nil {
			t.Errorf("case %d: chaining cleared the error", i)
		}
		if _, err := s.Config(); err == nil {
			t.Errorf("case %d: Config() ignored the error", i)
		}
	}
	// An invalid schedule must be rejected by RunOrdered too.
	g := smallGraph(t)
	if _, err := algo.SSSP(g, 0, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(-4)); err == nil {
		t.Error("RunOrdered accepted an invalid schedule")
	}
}

// TestScheduleFromConfigRoundTrip: ScheduleFromConfig is the inverse of
// Schedule.Config for configs that set every field, and a field outside
// core.Config.Validate's bounds is reported by Err.
func TestScheduleFromConfigRoundTrip(t *testing.T) {
	full := core.Config{
		Strategy: core.Lazy, Delta: 1 << 9, FusionThreshold: 77, NumBuckets: 33,
		Direction: core.Hybrid, Workers: 3, Grain: 64,
		RoundTimeout: 250 * time.Millisecond, StuckRounds: 9,
	}
	valid := []core.Config{core.DefaultConfig(), full}
	for _, st := range []core.Strategy{core.EagerWithFusion, core.EagerNoFusion, core.LazyConstantSum} {
		c := full
		c.Strategy, c.Direction = st, core.SparsePush
		valid = append(valid, c)
	}
	for _, c := range valid {
		got, err := graphit.ScheduleFromConfig(c).Config()
		if err != nil || got != c {
			t.Errorf("ScheduleFromConfig(%+v).Config() = %+v, %v", c, got, err)
		}
	}
	invalid := map[string]func(*core.Config){
		"delta":        func(c *core.Config) { c.Delta = 0 },
		"threshold":    func(c *core.Config) { c.FusionThreshold = 0 },
		"buckets":      func(c *core.Config) { c.NumBuckets = -1 },
		"grain":        func(c *core.Config) { c.Grain = -1 },
		"workers":      func(c *core.Config) { c.Workers = -1 },
		"roundTimeout": func(c *core.Config) { c.RoundTimeout = -time.Second },
		"stuckRounds":  func(c *core.Config) { c.StuckRounds = -1 },
	}
	for name, breakIt := range invalid {
		c := full
		breakIt(&c)
		if err := graphit.ScheduleFromConfig(c).Err(); err == nil {
			t.Errorf("%s out of range: ScheduleFromConfig reported no error", name)
		}
	}
}

func TestPublicPriorityQueueLoop(t *testing.T) {
	g := smallGraph(t)
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = graphit.Unreached
	}
	start := graphit.VertexID(1)
	dist[start] = 0
	pq, err := graphit.NewPriorityQueue(g, graphit.PriorityQueueOptions{
		AllowCoarsening:   true,
		PriorityDirection: "lower_first",
		PriorityVector:    dist,
		StartVertex:       &start,
	}, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(8))
	if err != nil {
		t.Fatal(err)
	}
	update := func(src, dst graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
		q.UpdatePriorityMin(dst, q.Priority(src)+int64(w))
	}
	for !pq.Finished() {
		bucket := pq.DequeueReadySet()
		pq.ApplyUpdatePriority(bucket, update)
	}
	want, err := algo.Dijkstra(g, start)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	if pq.Stats().Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestPriorityQueueRejections(t *testing.T) {
	g := smallGraph(t)
	dist := make([]int64, g.NumVertices())
	_, err := graphit.NewPriorityQueue(g, graphit.PriorityQueueOptions{
		PriorityDirection: "sideways",
		PriorityVector:    dist,
	}, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy"))
	if err == nil {
		t.Error("bad direction accepted")
	}
	_, err = graphit.NewPriorityQueue(g, graphit.PriorityQueueOptions{
		AllowCoarsening: false,
		PriorityVector:  dist,
	}, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(4))
	if err == nil {
		t.Error("coarsening schedule accepted on a no-coarsening queue")
	}
	_, err = graphit.NewPriorityQueue(g, graphit.PriorityQueueOptions{
		AllowCoarsening: true,
		PriorityVector:  dist,
	}, graphit.DefaultSchedule()) // eager default
	if err == nil {
		t.Error("eager schedule accepted for a user-driven loop")
	}
}

func TestCompileDSLFacade(t *testing.T) {
	plan, err := graphit.CompileDSLFile("testdata/dsl/sssp.gt")
	if err != nil {
		t.Fatal(err)
	}
	g := smallGraph(t)
	res, err := plan.Execute(graphit.ExecOptions{Graph: g, Argv: []string{"p", "-", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := algo.Dijkstra(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Vectors["dist"]
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	if _, err := graphit.CompileDSL("element"); err == nil {
		t.Error("bad DSL accepted")
	}
	if _, err := graphit.CompileDSLFile("testdata/dsl/missing.gt"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAtomicHelpers(t *testing.T) {
	x := int64(10)
	if !graphit.WriteMin(&x, 4) || graphit.AtomicLoad(&x) != 4 {
		t.Error("WriteMin/AtomicLoad broken")
	}
	if !graphit.WriteMax(&x, 9) || x != 9 {
		t.Error("WriteMax broken")
	}
	graphit.AtomicStore(&x, 2)
	if graphit.AtomicAdd(&x, 3) != 5 {
		t.Error("AtomicAdd broken")
	}
}
