// Package cliutil is the shared parse-and-validate layer for binaries and
// services that accept scheduling-language options by name (cmd/ordered,
// cmd/graphd, the server's query endpoint). It exists so an unknown
// strategy, direction, or algorithm name fails with one consistent error
// that lists the valid options, instead of each consumer drifting toward
// its own spelling.
package cliutil

import (
	"fmt"
	"strings"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
)

// ScheduleParams are the raw, by-name scheduling options a CLI flag set or
// a JSON query carries. Zero values mean "use the schedule default".
type ScheduleParams struct {
	Strategy        string
	Delta           int64
	FusionThreshold int
	NumBuckets      int
	Direction       string
	Workers         int
	Grain           int
	RoundTimeout    time.Duration
	StuckRounds     int
}

// Schedule validates the params and builds the graphit.Schedule they
// describe. Name fields are validated here — with errors listing the valid
// options — before the fluent Config* calls, whose own first-error
// reporting backstops the numeric ranges.
func (p ScheduleParams) Schedule() (graphit.Schedule, error) {
	s := graphit.DefaultSchedule()
	if p.Strategy != "" {
		if _, err := core.ParseStrategy(p.Strategy); err != nil {
			return s, optionError("priority-update strategy", p.Strategy, core.StrategyNames())
		}
		s = s.ConfigApplyPriorityUpdate(p.Strategy)
	}
	if p.Direction != "" {
		if _, err := core.ParseDirection(p.Direction); err != nil {
			return s, optionError("direction", p.Direction, core.DirectionNames())
		}
		s = s.ConfigApplyDirection(p.Direction)
	}
	if p.Delta != 0 {
		s = s.ConfigApplyPriorityUpdateDelta(p.Delta)
	}
	if p.FusionThreshold != 0 {
		s = s.ConfigBucketFusionThreshold(p.FusionThreshold)
	}
	if p.NumBuckets != 0 {
		s = s.ConfigNumBuckets(p.NumBuckets)
	}
	if p.Workers != 0 {
		s = s.ConfigNumWorkers(p.Workers)
	}
	if p.Grain != 0 {
		s = s.ConfigApplyParallelization(p.Grain)
	}
	if p.RoundTimeout != 0 {
		s = s.ConfigRoundTimeout(p.RoundTimeout)
	}
	if p.StuckRounds != 0 {
		s = s.ConfigStuckRounds(p.StuckRounds)
	}
	return s, s.Err()
}

// Normalize resolves p to its canonical, fully-defaulted form and returns it
// with the schedule it built: by-name fields come back with the engine's
// canonical spelling (an empty Strategy becomes "eager_with_fusion", …) and
// ∆, the fusion threshold and the bucket count are read back from the
// schedule, so the defaults graphit.DefaultSchedule filled in are
// materialized. Any two params describing the same effective schedule
// therefore normalize to identical values — the property stable cache keys
// are built on. Operational fields (Workers, Grain, RoundTimeout,
// StuckRounds) pass through unchanged: they select resources and watchdogs,
// not results.
func (p ScheduleParams) Normalize() (ScheduleParams, graphit.Schedule, error) {
	s, err := p.Schedule()
	if err != nil {
		return p, s, err
	}
	cfg, _ := s.Config() // its error is s.Err(), nil here
	p.Strategy = cfg.Strategy.String()
	p.Direction = cfg.Direction.String()
	p.Delta = cfg.Delta
	p.FusionThreshold = cfg.FusionThreshold
	p.NumBuckets = cfg.NumBuckets
	return p, s, nil
}

// CanonicalKey renders a normalized params value as one stable string — the
// schedule axis of a query-result cache key. Call Normalize first: the key
// is only canonical (equal schedules ⇒ equal keys) for normalized params.
// Watchdog fields are excluded — they bound execution, not results — while
// Workers and Grain are kept: the exact engines are deterministic across
// worker counts, but the approximate ones need not be.
func (p ScheduleParams) CanonicalKey() string {
	return fmt.Sprintf("strategy=%s,dir=%s,delta=%d,fusion=%d,buckets=%d,workers=%d,grain=%d",
		p.Strategy, p.Direction, p.Delta, p.FusionThreshold, p.NumBuckets, p.Workers, p.Grain)
}

// ParseAlgo resolves an algorithm name against the registry; an unknown
// name fails with the registry's canonical valid-options error.
func ParseAlgo(name string) (*algo.Spec, error) {
	return algo.Lookup(name)
}

// optionError is the one spelling of "unknown name" every consumer shares.
func optionError(what, got string, valid []string) error {
	return fmt.Errorf("unknown %s %q (valid: %s)", what, got, strings.Join(valid, ", "))
}
