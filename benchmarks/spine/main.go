// Command spine is the repository's benchmark: it measures graphd and the
// ordered engine end to end on four fixed workloads and, in a separate traced
// pass, attributes the time to the repository's layers. It imports the
// internal packages directly and changes nothing inside them; every timer
// here sits around a public function.
//
//	spine -workload W [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	spine -compare A B
//	spine -summarize DIR
//	spine -describe > BENCHMARK.json
//
// Run it from the repository root: -out and testdata/dsl are relative to it.
//
// benchmarks/run.sh builds it and runs each workload in its own process, so
// that set-up time and peak memory are per workload. The last line of a
// workload run's standard output is one JSON object for the driver.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: road_nav, social_hot, social_churn or paper_suite")
		seed      = flag.Int64("seed", 1, "request-stream seed (graph generator seeds are part of the workloads)")
		seconds   = flag.Float64("seconds", 20, "measured window in seconds, after the discarded warm-up")
		trace     = flag.Int("trace", 0, "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out       = flag.String("out", filepath.Join("benchmarks", "out"), "directory for <workload>.json / trace_<workload>.json and scratch data dirs")
		compare   = flag.Bool("compare", false, "compare two output sets: spine -compare A B")
		summarize = flag.String("summarize", "", "summarize the repeated runs under this directory (run.sh -repeat)")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json as the metric catalogue defines it")
	)
	flag.Parse()
	switch {
	case *describe:
		if _, err := os.Stdout.Write(describeBenchmark()); err != nil {
			fatal(2, err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("usage: spine -compare A B"))
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if worse {
			os.Exit(1)
		}
	case *summarize != "":
		if err := summarizeRuns(os.Stdout, *summarize); err != nil {
			fatal(2, err)
		}
	default:
		o := runOpts{
			workload: *workload,
			seed:     uint64(*seed),
			seconds:  time.Duration(*seconds * float64(time.Second)),
			sc:       fullScale,
			workdir:  filepath.Join(*out, "tmp"),
			dslDir:   filepath.Join("testdata", "dsl"), // run.sh runs spine from the repository root
		}
		res, err := run(o, *trace)
		if err == nil {
			err = res.finish()
		}
		if err != nil {
			fatal(1, err)
		}
		if err := res.write(*out); err != nil {
			fatal(1, err)
		}
		if err := res.print(os.Stdout); err != nil {
			fatal(1, err)
		}
	}
}

// run dispatches one workload's measured or traced pass.
func run(o runOpts, trace int) (*result, error) {
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("spine: -trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("spine: -seconds must be positive")
	}
	if trace == 1 {
		return runTraced(o)
	}
	switch o.workload {
	case wlRoadNav:
		return runServing(o, roadNav)
	case wlSocialHot:
		return runServing(o, socialHot)
	case wlSocialChurn:
		return runChurn(o)
	case wlPaperSuite:
		return runSuite(o)
	}
	return nil, fmt.Errorf("spine: unknown workload %q (want %s, %s, %s or %s)",
		o.workload, wlRoadNav, wlSocialHot, wlSocialChurn, wlPaperSuite)
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "spine:", err)
	os.Exit(code)
}
