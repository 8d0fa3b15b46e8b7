package cliutil

import (
	"strings"
	"testing"
	"time"

	"graphit/internal/core"
)

// TestUnknownNamesListValidOptions pins the shared error contract: every
// by-name field rejects an unknown value with one error that lists all the
// valid spellings, so cmd/ordered and graphd fail identically.
func TestUnknownNamesListValidOptions(t *testing.T) {
	cases := []struct {
		name   string
		params ScheduleParams
		want   []string // all must appear in the error
	}{
		{
			"strategy",
			ScheduleParams{Strategy: "eager"},
			[]string{`unknown priority-update strategy "eager"`, "eager_with_fusion", "eager_no_fusion", "lazy", "lazy_constant_sum"},
		},
		{
			"direction",
			ScheduleParams{Direction: "Sideways"},
			[]string{`unknown direction "Sideways"`, "SparsePush", "DensePull", "DensePull-SparsePush"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.params.Schedule()
			if err == nil {
				t.Fatal("want error for unknown name")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Fatalf("error %q missing %q", err, frag)
				}
			}
		})
	}
}

func TestParseAlgoUnknownListsNames(t *testing.T) {
	if _, err := ParseAlgo("sssp"); err != nil {
		t.Fatalf("ParseAlgo(sssp): %v", err)
	}
	_, err := ParseAlgo("pagerank")
	if err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	for _, frag := range []string{`"pagerank"`, "valid:", "sssp", "kcore", "setcover", "astar"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err, frag)
		}
	}
}

// TestScheduleBuildsConfiguredValues checks that the validated params land in
// the underlying engine config, and that zero values keep the defaults.
func TestScheduleBuildsConfiguredValues(t *testing.T) {
	s, err := ScheduleParams{
		Strategy:     "lazy_constant_sum",
		Delta:        64,
		NumBuckets:   32,
		Direction:    "DensePull",
		Workers:      2,
		RoundTimeout: 250 * time.Millisecond,
		StuckRounds:  17,
	}.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy.String() != "lazy_constant_sum" || cfg.Delta != 64 ||
		cfg.NumBuckets != 32 || cfg.Direction.String() != "DensePull" ||
		cfg.Workers != 2 || cfg.RoundTimeout != 250*time.Millisecond ||
		cfg.StuckRounds != 17 {
		t.Fatalf("config = %+v", cfg)
	}

	// All-zero params: the defaults, valid, no error.
	s, err = ScheduleParams{}.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy.String() != "eager_with_fusion" || cfg.Delta != 1 {
		t.Fatalf("default config = %+v", cfg)
	}
}

// TestScheduleNumericRangeBackstop: bad numeric values still fail through the
// fluent config's own first-error reporting.
func TestScheduleNumericRangeBackstop(t *testing.T) {
	if _, err := (ScheduleParams{Delta: -5}).Schedule(); err == nil {
		t.Fatal("negative delta accepted")
	}
}

// TestNormalizeReturnsItsSchedule: Normalize materializes the defaults from
// the schedule it builds, and that schedule is the one the normalized params
// describe.
func TestNormalizeReturnsItsSchedule(t *testing.T) {
	norm, s, err := ScheduleParams{Strategy: "lazy", Workers: 2, StuckRounds: 5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig()
	if norm.Delta != def.Delta || norm.FusionThreshold != def.FusionThreshold ||
		norm.NumBuckets != def.NumBuckets || norm.Direction != def.Direction.String() {
		t.Fatalf("normalized = %+v, want the defaults materialized", norm)
	}
	again, err := norm.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Config()
	want, _ := again.Config()
	if got != want {
		t.Fatalf("Normalize built %+v, the normalized params describe %+v", got, want)
	}
	if _, _, err := (ScheduleParams{NumBuckets: -1}).Normalize(); err == nil {
		t.Fatal("negative bucket count normalized")
	}
}
