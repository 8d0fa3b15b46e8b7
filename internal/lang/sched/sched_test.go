package sched

import (
	"testing"

	"graphit/internal/core"
	"graphit/internal/lang"
)

func TestResolveFigure8Chain(t *testing.T) {
	calls, err := ParseText(`
program->configApplyPriorityUpdate("s1", "lazy")
->configApplyPriorityUpdateDelta("s1", "4")
->configApplyDirection("s1", "SparsePush")
->configApplyParallelization("s1", "dynamic-vertex-parallel");
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Resolve(calls)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Get("s1")
	if s.Strategy != core.Lazy || s.Delta != 4 || s.Direction != core.SparsePush {
		t.Fatalf("resolved %+v", s)
	}
}

func TestResolveMultipleLabels(t *testing.T) {
	calls, err := ParseText(`
program->configApplyPriorityUpdate("s1", "eager_no_fusion");
program->configNumBuckets("s2", "32")->configBucketFusionThreshold("s2", "64");
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Resolve(calls)
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("s1").Strategy != core.EagerNoFusion {
		t.Error("s1 strategy wrong")
	}
	if m.Get("s2").NumBuckets != 32 || m.Get("s2").FusionThreshold != 64 {
		t.Error("s2 settings wrong")
	}
	// Unscheduled labels get the Table 2 defaults.
	d := m.Get("s3")
	if d.Strategy != core.EagerWithFusion || d.Delta != 1 || d.FusionThreshold != 1000 || d.NumBuckets != 128 {
		t.Errorf("defaults wrong: %+v", d)
	}
}

func TestResolveParallelizationGrain(t *testing.T) {
	calls, err := ParseText(`program->configApplyParallelization("s1", "dynamic-vertex-parallel,256");`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Resolve(calls)
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("s1").Grain != 256 {
		t.Fatalf("grain = %d", m.Get("s1").Grain)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []string{
		`program->configApplyPriorityUpdate("s1", "warp_speed");`,
		`program->configApplyPriorityUpdateDelta("s1", "0");`,
		`program->configApplyPriorityUpdateDelta("s1", "abc");`,
		`program->configBucketFusionThreshold("s1", "-3");`,
		`program->configNumBuckets("s1", "0");`,
		`program->configApplyDirection("s1", "Diagonal");`,
		`program->configApplyParallelization("s1", "static-cache-aware");`,
		`program->configTurboMode("s1", "on");`,
		`program->configApplyPriorityUpdate("s1");`,
	}
	for _, src := range cases {
		calls, err := ParseText(src)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := Resolve(calls); err == nil {
			t.Errorf("expected resolve error for %q", src)
		}
	}
}

// TestConfigConversion: a label's schedule is a core.Config seeded from
// core.DefaultConfig, and a resolved chain changes only the fields it names.
func TestConfigConversion(t *testing.T) {
	m := Schedules{}
	if got := *m.Get("x"); got != core.DefaultConfig() {
		t.Fatalf("unscheduled label = %+v, want the defaults", got)
	}
	calls, err := ParseText(`program->configApplyPriorityUpdate("x", "lazy")->configApplyPriorityUpdateDelta("x", "16");`)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = Resolve(calls); err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	want.Strategy, want.Delta = core.Lazy, 16
	if got := *m.Get("x"); got != want {
		t.Fatalf("config = %+v, want %+v", got, want)
	}
}

// TestResolveDeduplicationAndHybrid: configDeduplication, original GraphIt's
// switch, still parses and still rejects a value other than "enabled" or
// "disabled", but sets nothing — the engine always deduplicates at the
// bucket seam.
func TestResolveDeduplicationAndHybrid(t *testing.T) {
	calls, err := ParseText(`
program->configDeduplication("s1", "disabled")
->configApplyDirection("s1", "DensePull-SparsePush");
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Resolve(calls)
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	want.Direction = core.Hybrid
	if got := *m.Get("s1"); got != want {
		t.Errorf("config = %+v, want %+v", got, want)
	}
	if _, err := Resolve([]lang.SchedCall{{Name: "configDeduplication", Args: []string{"s1", "maybe"}}}); err == nil {
		t.Error("bad dedup value accepted")
	}
}

// TestFormatRoundTrip: Resolve(ParseText(Format(label, c))) gives back c for
// every strategy × direction, grain {0, 64} and worker count {default,
// serial}, with non-default ∆, fusion threshold and bucket count.
func TestFormatRoundTrip(t *testing.T) {
	for _, st := range core.StrategyNames() {
		for _, dir := range core.DirectionNames() {
			for _, grain := range []int{0, 64} {
				for _, workers := range []int{0, 1} {
					c := core.Config{Delta: 1 << 11, FusionThreshold: 77, NumBuckets: 33, Grain: grain, Workers: workers}
					c.Strategy, _ = core.ParseStrategy(st)
					c.Direction, _ = core.ParseDirection(dir)
					text := Format("s1", c)
					calls, err := ParseText(text)
					if err != nil {
						t.Fatalf("%v\n%s", err, text)
					}
					m, err := Resolve(calls)
					if err != nil {
						t.Fatalf("%v\n%s", err, text)
					}
					if got := *m["s1"]; got != c || len(m) != 1 {
						t.Errorf("round trip of %+v gave %+v (%d labels):\n%s", c, got, len(m), text)
					}
				}
			}
		}
	}
}

// TestResolveSerialRunsOnOneWorker: "serial" sets the label's worker count
// to one, with or without a grain, and a later "dynamic-vertex-parallel"
// gives the default count back.
func TestResolveSerialRunsOnOneWorker(t *testing.T) {
	for _, tc := range []struct {
		text           string
		workers, grain int
	}{
		{`program->configApplyParallelization("s1", "serial");`, 1, 0},
		{`program->configApplyParallelization("s1", "serial,32");`, 1, 32},
		{`program->configApplyParallelization("s1", "serial")->configApplyParallelization("s1", "dynamic-vertex-parallel");`, 0, 0},
	} {
		calls, err := ParseText(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Resolve(calls)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Get("s1"); got.Workers != tc.workers || got.Grain != tc.grain {
			t.Errorf("%s: workers %d grain %d, want %d and %d", tc.text, got.Workers, got.Grain, tc.workers, tc.grain)
		}
	}
}
