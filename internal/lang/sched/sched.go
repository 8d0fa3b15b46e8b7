// Package sched resolves the scheduling language of paper Table 2 /
// Figure 8: chains of `program->configX(label, value)` calls are turned
// into per-label core.Config schedules that the back ends apply to the
// labeled applyUpdatePriority operators, and Format prints a core.Config
// back as such a chain.
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"graphit/internal/core"
	"graphit/internal/lang"
)

// Schedules maps labels to their resolved schedules, each a core.Config
// seeded from core.DefaultConfig (the bold options of paper Table 2).
type Schedules map[string]*core.Config

// Get returns the schedule for label, creating a default if absent.
func (m Schedules) Get(label string) *core.Config {
	if s, ok := m[label]; ok {
		return s
	}
	s := core.DefaultConfig()
	m[label] = &s
	return &s
}

// Resolve interprets a parsed scheduling chain. Each call sets one field of
// its label's record, which must then pass core.Config.Validate.
func Resolve(calls []lang.SchedCall) (Schedules, error) {
	out := Schedules{}
	for _, c := range calls {
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("%s: %s takes (label, value)", c.Pos, c.Name)
		}
		s, a := out.Get(c.Args[0]), c.Args[1]
		var err error
		switch c.Name {
		case "configApplyPriorityUpdate":
			s.Strategy, err = core.ParseStrategy(a)
		case "configApplyPriorityUpdateDelta", "configApplyUpdateDelta":
			s.Delta, err = strconv.ParseInt(a, 10, 64)
		case "configBucketFusionThreshold":
			s.FusionThreshold, err = strconv.Atoi(a)
		case "configNumBuckets":
			s.NumBuckets, err = strconv.Atoi(a)
		case "configApplyDirection":
			s.Direction, err = core.ParseDirection(a)
		case "configDeduplication":
			// Original GraphIt's switch. The engine always deduplicates
			// lazy updates once, at the bucket seam, so the call is
			// checked and ignored.
			if a != "enabled" && a != "disabled" {
				err = fmt.Errorf("takes \"enabled\" or \"disabled\", got %q", a)
			}
		case "configApplyParallelization":
			// "dynamic-vertex-parallel" runs the loop on the default worker
			// count and "serial" on one worker; either may carry a grain
			// (e.g. "dynamic-vertex-parallel,64"). An explicit grain must
			// be >= 1: the default is selected by giving none.
			mode, grain, found := strings.Cut(a, ",")
			switch mode {
			case "dynamic-vertex-parallel":
				s.Workers = 0
			case "serial":
				s.Workers = 1
			default:
				err = fmt.Errorf("unsupported parallelization %q", mode)
			}
			if err == nil && found {
				if s.Grain, err = strconv.Atoi(grain); err == nil && s.Grain < 1 {
					err = fmt.Errorf("bad grain %q", grain)
				}
			}
		default:
			err = fmt.Errorf("unknown scheduling function %q", c.Name)
		}
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", c.Pos, c.Name, err)
		}
	}
	return out, nil
}

// Format renders cfg as label's scheduling chain (paper Figure 8), ready to
// paste into a program's schedule block or feed to graphitc -schedule. It
// names every field Resolve reads, so Resolve(ParseText(Format(l, c)))
// gives back c for label l; what Resolve never sets (the watchdogs, and a
// worker count other than serial's one) is left out.
func Format(label string, cfg core.Config) string {
	par := "dynamic-vertex-parallel"
	if cfg.Workers == 1 {
		par = "serial"
	}
	if cfg.Grain > 0 {
		par += fmt.Sprintf(",%d", cfg.Grain)
	}
	return fmt.Sprintf(`program->configApplyPriorityUpdate(%[1]q, %[2]q)
->configApplyPriorityUpdateDelta(%[1]q, "%[3]d")
->configBucketFusionThreshold(%[1]q, "%[4]d")
->configNumBuckets(%[1]q, "%[5]d")
->configApplyDirection(%[1]q, %[6]q)
->configApplyParallelization(%[1]q, %[7]q);`,
		label, cfg.Strategy.String(), cfg.Delta, cfg.FusionThreshold, cfg.NumBuckets,
		cfg.Direction.String(), par)
}

// ParseText parses standalone scheduling text (the contents of a schedule
// block without the `schedule:` keyword, or with it).
func ParseText(text string) ([]lang.SchedCall, error) {
	src := text
	if len(src) < 9 || src[:9] != "schedule:" {
		src = "schedule:\n" + src
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Schedule, nil
}
