package main

import (
	"strings"
	"testing"
)

func names(exps []experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.name)
	}
	return out
}

// TestSelectRejectsUnknown: an unknown name — alone or beside a valid one —
// is an error naming it and listing every valid experiment, never a silent
// no-op run.
func TestSelectRejectsUnknown(t *testing.T) {
	for spec, bad := range map[string]string{"perf": "perf", "fig1,nope": "nope", "reuse": "reuse"} {
		exps, err := selectExperiments(spec)
		if err == nil {
			t.Errorf("-exp %s: selected %v, want an error", spec, names(exps))
			continue
		}
		msg := err.Error()
		for _, frag := range append([]string{`"` + bad + `"`}, validNames()...) {
			if !strings.Contains(msg, frag) {
				t.Errorf("-exp %s: error %q does not mention %s", spec, msg, frag)
			}
		}
	}
}

func TestSelectKnown(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(names(all), ","), strings.Join(validNames()[1:], ","); got != want {
		t.Errorf("-exp all selected %s, want %s", got, want)
	}
	one, err := selectExperiments(" table5 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(one); len(got) != 1 || got[0] != "table5" {
		t.Errorf("-exp table5 selected %v", got)
	}
	// Selection follows table order, not the order names were given in.
	two, err := selectExperiments("table4,fig1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(two), ","); got != "fig1,table4" {
		t.Errorf("-exp table4,fig1 selected %s", got)
	}
}
