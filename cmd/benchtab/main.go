// Command benchtab regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic dataset stand-ins, printing the
// same rows/series the paper reports. See DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results. Speed
// numbers for regression tracking come from the benchmark spine
// (benchmarks/README.md), not from here.
//
// Usage:
//
//	benchtab                       # everything at medium scale
//	benchtab -exp table6 -scale large
//	benchtab -exp fig1,fig4,table4
//	benchtab -exp ablation           # the design-knob sweeps of DESIGN.md §4
//	benchtab -workers 1,2,4,8      # the Figure 11 sweep points
//	benchtab -timeout 5m           # bound the whole run; partial tables on expiry
//
// An unknown -exp name exits 2 and lists the valid ones. ^C (or an expired
// -timeout) cancels the in-flight experiment at its engine's next chunk
// boundary and skips the rest.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"graphit/internal/bench"
)

// experiment is one table or figure of the evaluation; run prints it.
type experiment struct {
	name string
	run  func(ctx context.Context, s bench.Scale, workers []int) error
}

// printTable prints t unless err is set.
func printTable(t *bench.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}

// experiments is the name → func table, in the order "all" runs them.
var experiments = []experiment{
	{"fig1", func(ctx context.Context, s bench.Scale, _ []int) error {
		t, _, err := bench.Fig1(ctx, s)
		return printTable(t, err)
	}},
	{"fig4", func(ctx context.Context, s bench.Scale, _ []int) error {
		t, _, err := bench.Fig4(ctx, s)
		return printTable(t, err)
	}},
	{"table4", func(ctx context.Context, s bench.Scale, _ []int) error {
		return printTable(bench.Table4(ctx, s))
	}},
	{"table5", func(context.Context, bench.Scale, []int) error {
		return printTable(bench.Table5())
	}},
	{"table6", func(ctx context.Context, s bench.Scale, _ []int) error {
		t, _, err := bench.Table6(ctx, s)
		return printTable(t, err)
	}},
	{"table7", func(ctx context.Context, s bench.Scale, _ []int) error {
		return printTable(bench.Table7(ctx, s))
	}},
	{"fig11", func(ctx context.Context, s bench.Scale, ws []int) error {
		return printTable(bench.Fig11(ctx, s, ws))
	}},
	{"delta", func(ctx context.Context, s bench.Scale, _ []int) error {
		return printTable(bench.DeltaSweep(ctx, s))
	}},
	{"ablation", func(ctx context.Context, s bench.Scale, _ []int) error {
		return printTable(bench.Ablation(ctx, s))
	}},
	{"autotune", func(ctx context.Context, s bench.Scale, _ []int) error {
		t, worst, err := bench.Autotune(ctx, s)
		if err != nil {
			return err
		}
		fmt.Println(t)
		fmt.Printf("worst autotuned/hand-tuned ratio: %.3f\n", worst)
		return nil
	}},
}

// validNames lists every accepted -exp name.
func validNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

// selectExperiments resolves a comma-separated -exp value to the
// experiments it names, in table order. Any unknown name is an error that
// lists the valid ones.
func selectExperiments(spec string) ([]experiment, error) {
	valid := validNames()
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(validNames(), ", "))
		scale   = flag.String("scale", "medium", "small | medium | large")
		workers = flag.String("workers", "1,2,4,8", "Figure 11 worker sweep")
		timeout = flag.Duration("timeout", 0, "wall-clock bound for the whole run (0 = none)")
	)
	flag.Parse()
	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(2)
	}
	s := bench.Scale(*scale)
	switch s {
	case bench.ScaleSmall, bench.ScaleMedium, bench.ScaleLarge:
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	var ws []int
	for _, part := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			fmt.Fprintf(os.Stderr, "benchtab: bad worker count %q\n", part)
			os.Exit(2)
		}
		ws = append(ws, w)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	for _, e := range exps {
		if ctx.Err() != nil {
			fmt.Printf("[%s skipped: %v]\n\n", e.name, ctx.Err())
			continue
		}
		start := time.Now()
		if err := e.run(ctx, s, ws); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			fmt.Printf("[%s failed after %.1fs]\n\n", e.name, time.Since(start).Seconds())
			continue
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
}
