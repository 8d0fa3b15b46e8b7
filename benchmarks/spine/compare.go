package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// exactCounts are the per-layer metrics that repeat exactly for one seed;
// -compare flags them when two sets disagree.
var exactCounts = map[string]bool{
	"core.rounds": true, "core.fused_rounds": true, "core.global_syncs": true,
	"core.relaxations": true, "core.bucket_inserts": true, "core.processed": true,
	"wal.bytes_per_op": true, "graph.apply_delta_bytes_copied": true,
}

// loadSet reads every spine result under dir (run.sh -repeat keeps one
// subdirectory per repetition).
func loadSet(dir string) ([]*result, error) {
	var out []*result
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if json.Unmarshal(b, &r) != nil || r.Schema != schema {
			return nil // some other JSON file
		}
		out = append(out, &r)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no %s results under %s", schema, dir)
	}
	return out, err
}

// series collects one metric's values over a set's runs, keyed by
// workload, trace and metric name.
type seriesKey struct {
	workload string
	trace    int
	metric   string
}

func collect(set []*result) map[seriesKey][]float64 {
	m := map[seriesKey][]float64{}
	for _, r := range set {
		for name, v := range r.Metrics {
			k := seriesKey{r.Workload, r.Trace, name}
			m[k] = append(m[k], v.Value)
		}
	}
	return m
}

// quartiles are the first quartile, median and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the driver's method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// worsening is how much b is worse than a, as a share of a, given the
// metric's direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func sortedKeys(m map[seriesKey][]float64) []seriesKey {
	keys := make([]seriesKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.metric < b.metric
	})
	return keys
}

// compareSets prints one row per (metric, workload) present in both sets:
// both medians, the ratio with its base, the bound, and ok / worse /
// unresolved. It reports whether any end-to-end metric got worse by more
// than its bound or failed_share rose. Per-layer rows carry no verdict,
// except that exact counts are marked when they differ.
func compareSets(w io.Writer, dirA, dirB string) (worse bool, err error) {
	setA, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	if a, b := setA[0].Env.NProc, setB[0].Env.NProc; a != b {
		return false, fmt.Errorf("refusing to compare: %s ran on %d CPUs, %s on %d", dirA, a, dirB, b)
	}
	if a, b := setA[0].Seconds, setB[0].Seconds; a != b {
		return false, fmt.Errorf("refusing to compare: %s measured %g s windows, %s %g s", dirA, a, dirB, b)
	}
	a, b := collect(setA), collect(setB)
	fmt.Fprintf(w, "base A = %s (commit %s), B = %s (commit %s)\n", dirA, setA[0].Env.Commit, dirB, setB[0].Env.Commit)
	fmt.Fprintf(w, "%-14s %-36s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "median A", "median B", "B/A", "bound", "spread", "verdict")
	for _, k := range sortedKeys(a) {
		vb, ok := b[k]
		if !ok {
			continue
		}
		va := a[k]
		_, ma, _ := quartiles(va)
		_, mb, _ := quartiles(vb)
		if ma == 0 && mb == 0 && k.metric != "failed_share" {
			continue // a layer this workload does not drive
		}
		sp := max(spread(va), spread(vb))
		verdict, bound := "", ""
		if def, gated := lookupMetric(k.metric); k.trace == 0 && gated {
			bound = fmt.Sprintf("%.2f", def.Bound)
			delta := worsening(def.Better, ma, mb)
			switch {
			case k.metric == "failed_share":
				verdict = "ok"
				if mb > ma {
					verdict = "worse"
				}
			case delta > def.Bound && sp <= delta:
				verdict = "worse"
			case delta > def.Bound || sp > def.Bound:
				verdict = "unresolved (spread wider than bound)"
			default:
				verdict = "ok"
			}
			worse = worse || verdict == "worse"
		} else if exactCounts[k.metric] && k.trace == 1 {
			verdict = "same"
			if ma != mb || spread(va) != 0 || spread(vb) != 0 {
				verdict = "differs"
			}
		}
		fmt.Fprintf(w, "%-14s %-36s %14.4f %14.4f %9.4f %7s %8.4f  %s\n", k.workload, k.metric, ma, mb, ratio(mb, ma), bound, sp, verdict)
	}
	return worse, nil
}

// summaryRow is one (workload, metric) line of a repeated run's table.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
}

// summarizeRuns reduces the measured runs under dir (run.sh -repeat) to each
// end-to-end metric's quartiles with the observed spread beside the bound,
// prints the table as markdown and writes dir/summary.json.
func summarizeRuns(w io.Writer, dir string) error {
	set, err := loadSet(dir)
	if err != nil {
		return err
	}
	series := collect(set)
	var rows []summaryRow
	for _, k := range sortedKeys(series) {
		def, ok := lookupMetric(k.metric)
		if k.trace != 0 || !ok {
			continue
		}
		q1, q2, q3 := quartiles(series[k])
		rows = append(rows, summaryRow{k.workload, k.metric, def.Unit, len(series[k]), q1, q2, q3, spread(series[k]), def.Bound})
	}
	fmt.Fprintf(w, "| workload | metric | unit | runs | q1 | median | q3 | spread | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %d | %.4g | %.4g | %.4g | %.3f | %.2f |\n", r.Workload, r.Metric, r.Unit, r.Runs, r.Q1, r.Median, r.Q3, r.Spread, r.Bound)
	}
	b, err := json.MarshalIndent(struct {
		Schema string       `json:"schema"`
		Env    environment  `json:"env"`
		Rows   []summaryRow `json:"rows"`
	}{schema + "/summary", set[0].Env, rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(b, '\n'), 0o644)
}
