package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const schema = "graphit-spine/v1"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is the machine fingerprint a result was measured on; -compare
// refuses to compare results whose NProc differ.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	commit := os.Getenv("SPINE_COMMIT") // run.sh fills it in; a bare checkout has no git
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// result is one process's output: out/<workload>.json for a measured run,
// out/trace_<workload>.json (with spans) for a traced one.
type result struct {
	Schema    string      `json:"schema"`
	Workload  string      `json:"workload"`
	Trace     int         `json:"trace"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	WarmupS   float64     `json:"warmup_s"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// FirstFailure is the first correctness or transport failure seen.
	FirstFailure string `json:"first_failure,omitempty"`
	// Samples is how many latency samples stand behind each percentile.
	Samples map[string]int   `json:"samples,omitempty"`
	Metrics map[string]value `json:"metrics"`
	// Info holds informational numbers that are neither gated nor compared
	// (tails that need >= 1000 samples, counters of the measured pass).
	Info  map[string]value `json:"info,omitempty"`
	Spans []span           `json:"spans,omitempty"`
}

func newResult(workload string, trace int, seed uint64, seconds, warmup time.Duration) *result {
	return &result{
		Schema:   schema,
		Workload: workload,
		Trace:    trace,
		Seed:     seed,
		Seconds:  seconds.Seconds(),
		WarmupS:  warmup.Seconds(),
		Env:      currentEnv(),
		Samples:  map[string]int{},
		Metrics:  map[string]value{},
		Info:     map[string]value{},
	}
}

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("spine: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *result) info(name, unit string, v float64) { r.Info[name] = value{Value: v, Unit: unit} }

// absorb folds a checker's tallies into the result.
func (r *result) absorb(c *checker) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	if r.FirstFailure == "" {
		r.FirstFailure = c.first
	}
}

// finish fills the derived fields and checks the result against the
// catalogue: a missing or non-finite metric is a benchmark bug.
func (r *result) finish() error {
	r.Correct = r.Failed == 0
	if r.Trace == 0 {
		share := 0.0
		if r.Attempted > 0 {
			share = float64(r.Failed) / float64(r.Attempted)
		}
		r.set("failed_share", share)
	}
	for _, d := range expectedMetrics(r.Workload, r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if r.Trace != 0 {
				r.set(d.Name, 0) // a layer this workload does not drive
				continue
			}
			return fmt.Errorf("spine: %s did not report %s", r.Workload, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("spine: %s reported %s = %v", r.Workload, d.Name, v.Value)
		}
		// Only a window without a single sample yields a 0 end to end, and a
		// 0 would read as the best latency there is.
		if r.Trace == 0 && v.Value <= 0 && d.Name != "failed_share" {
			return fmt.Errorf("spine: %s reported %s = %v: nothing was measured", r.Workload, d.Name, v.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("spine: %s attempted nothing", r.Workload)
	}
	return nil
}

// print writes every metric by name with its unit, then — as the last line —
// the one-object summary the driver parses: the gated end-to-end metrics of a
// measured run, or the per-layer metrics of a traced one.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s trace=%d seed=%d seconds=%g nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Go, r.Env.Commit)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	infos := make([]string, 0, len(r.Info))
	for n := range r.Info {
		infos = append(infos, n)
	}
	sort.Strings(infos)
	for _, n := range infos {
		fmt.Fprintf(w, "%-40s %14.4f %s (informational)\n", n, r.Info[n].Value, r.Info[n].Unit)
	}
	kinds := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "samples[%s] = %d\n", k, r.Samples[k])
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v %s\n", r.Attempted, r.Failed, r.Correct, r.FirstFailure)

	gated := endToEnd
	if r.Trace != 0 {
		gated = perLayer
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range gated {
		last.Metrics[d.Name] = r.Metrics[d.Name]
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// write stores the full result under dir.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Trace != 0 {
		name = "trace_" + name
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("spine: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("spine: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of sorted by linear interpolation; 0 for
// an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a counter that never fired).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
