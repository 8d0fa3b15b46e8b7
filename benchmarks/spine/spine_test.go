package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphit/internal/parallel"
	"graphit/internal/server"
	"graphit/internal/testutil"
)

func toyOpts(t *testing.T, workload string) runOpts {
	t.Helper()
	return runOpts{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		sc:       toyScale,
		workdir:  t.TempDir(),
		dslDir:   filepath.Join("..", "..", "testdata", "dsl"),
	}
}

// TestSmoke runs every workload's measured and traced pass at toy scale and
// checks the shape of what they report: every catalogued metric present with
// its unit, nothing failed, and the spans a tree.
func TestSmoke(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	for _, w := range workloadWhy {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(toyOpts(t, w.Name), trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if err := res.finish(); err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d: %s", w.Name, trace, res.Attempted, res.Failed, res.FirstFailure)
			}
			for _, d := range expectedMetrics(w.Name, trace) {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %q", w.Name, trace, d.Name, v, ok, d.Unit)
				}
			}
			if trace == 0 {
				if res.Metrics["failed_share"].Value != 0 {
					t.Errorf("%s: failed_share = %v", w.Name, res.Metrics["failed_share"].Value)
				}
				if len(res.Spans) != 0 {
					t.Errorf("%s: the measured pass recorded %d spans; tracing must be off", w.Name, len(res.Spans))
				}
				continue
			}
			checkSpanTree(t, w.Name, res.Spans)
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,`) {
				t.Errorf("%s: last output line is not the driver's JSON: %.80s", w.Name, last)
			}
		}
	}
}

// checkSpanTree requires one root and, for every other span, a parent that
// was recorded before it and an interval that ends after it starts.
func checkSpanTree(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) < 2 {
		t.Fatalf("%s: traced pass recorded %d spans", workload, len(spans))
	}
	layers := map[string]bool{}
	for i, s := range spans {
		layers[s.Layer] = true
		if s.ID != i+1 {
			t.Fatalf("%s: span %d has id %d", workload, i, s.ID)
		}
		if i == 0 {
			if s.Parent != 0 {
				t.Errorf("%s: root span has parent %d", workload, s.Parent)
			}
			continue
		}
		if s.Parent < 1 || s.Parent >= s.ID {
			t.Errorf("%s: span %d (%s) has parent %d; parents must precede children", workload, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start || s.End == 0 {
			t.Errorf("%s: span %d (%s) runs %d..%d", workload, s.ID, s.Name, s.Start, s.End)
		}
	}
	if workload != wlPaperSuite && !(layers["server"] && layers["qexec"] && layers["core"]) {
		t.Errorf("%s: spans cover layers %v, want server, qexec and core", workload, layers)
	}
}

// TestWrongAnswerCountsAsFailed corrupts the replies the answer check sees
// and requires the run to count them as failed operations.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	for _, w := range []string{wlRoadNav, wlSocialChurn} {
		o := toyOpts(t, w)
		o.seconds = 50 * time.Millisecond
		o.tamper = func(r *server.Response) {
			if r.Reached != nil {
				*r.Reached++
			}
			if r.PairDist != nil {
				*r.PairDist++
			}
		}
		res, err := run(o, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.finish(); err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct || res.Metrics["failed_share"].Value == 0 {
			t.Errorf("%s: corrupted answers passed: attempted %d, failed %d", w, res.Attempted, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json in
// step with metrics.go (regenerate it with spine -describe).
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, describeBenchmark()) {
		t.Error("BENCHMARK.json differs from the catalogue; run: go -C benchmarks run ./spine -describe > BENCHMARK.json")
	}
}

// TestFailedRequestMissesEveryPercentile: a failed request enters the
// percentiles as the longest latency the window holds, not as a missing sample.
func TestFailedRequestMissesEveryPercentile(t *testing.T) {
	samples := make([]sample, 11)
	for i := range samples {
		samples[i] = sample{kind: "sssp", lat: time.Millisecond, ok: i < 9}
	}
	sum := summarize(samples, false, time.Second)
	if sum.n != 11 || sum.perSecond != 9 || sum.p50 != 1 || sum.p90 != 1000 {
		t.Errorf("n=%d perSecond=%v p50=%v p90=%v, want 11, 9, 1, 1000", sum.n, sum.perSecond, sum.p50, sum.p90)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare two synthetic sets and checks each
// verdict: within bound, worse, too noisy to tell, and a failed_share rise.
func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, rep int, p50, p90, failed float64) {
		r := newResult(wlRoadNav, 0, uint64(rep), time.Second, 0)
		r.set("query_p50_ms", p50)
		r.set("query_p90_ms", p90)
		r.set("queries_per_s", 100)
		r.set("failed_share", failed)
		if err := r.write(filepath.Join(dir, "rep"+string(rune('0'+rep)))); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for rep, jitter := range []float64{0.99, 1, 1.01, 1.02} {
		write(a, rep, 10*jitter, 20*jitter, 0)
		write(b, rep, 14*jitter, 20*jitter*(1+0.2*float64(rep)), 0.01) // p50 +40%: worse; p90 spread ~40%: unresolved
	}
	var out bytes.Buffer
	worse, err := compareSets(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 40% slower median was not reported as worse")
	}
	for metric, verdict := range map[string]string{
		"query_p50_ms": "worse", "query_p90_ms": "unresolved", "queries_per_s": "ok", "failed_share": "worse",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				found = strings.Contains(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in:\n%s", metric, verdict, out.String())
		}
	}
	sameWorse, err := compareSets(&out, a, a)
	if err != nil || sameWorse {
		t.Errorf("a set compared with itself: worse=%v err=%v", sameWorse, err)
	}
}
