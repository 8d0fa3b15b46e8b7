package main

import "encoding/json"

// The metric catalogue is the single source of names, units and directions.
// BENCHMARK.json at the repository root mirrors endToEnd and perLayer (the
// smoke test fails when they drift); -compare takes its bounds from here.

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef describes one metric. Bound is the share of the baseline median
// by which the metric may worsen before -compare reports "worse".
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Workloads lists where the metric applies; nil means every workload.
	Workloads []string
}

const (
	wlRoadNav     = "road_nav"
	wlSocialHot   = "social_hot"
	wlSocialChurn = "social_churn"
	wlPaperSuite  = "paper_suite"
)

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// "why", README table).
var workloadWhy = []struct{ Name, Why string }{
	{wlRoadNav, "high-diameter road grid, eager bucket fusion, every query misses the cache: engine rounds and barriers dominate"},
	{wlSocialHot, "low-diameter R-MAT, lazy schedule, Zipf sources over a working set 8x the cache: hit path is codec+cache, miss path is batch window+lazy kernel"},
	{wlSocialChurn, "durable writer beside a reader on the same graph: every ack advances the epoch, so reads never hit and compete with ApplyDelta, WAL fsync and compaction"},
	{wlPaperSuite, "no HTTP: the paper's six ordered algorithms and two DSL programs under their best schedules, so kernels the serving mixes never reach are gated too"},
}

// endToEnd are the metrics every workload reports with tracing off; they are
// the ones BENCHMARK.json gates. On paper_suite a "query" is one
// algo.Spec.Run (or Plan.Execute) call; on the serving workloads it is one
// POST /query.
//
// suite_geomean_ms is the geometric mean over the workload's cells of the
// cell's typical time. A cell is an (algorithm, schedule, graph) entry on
// paper_suite and a request kind on the serving workloads; social_churn adds
// the writer's two batch kinds and the recovery drill, which is how the write
// path and recovery reach the gated list (see extras).
//
// The bounds are what this 2-vCPU sandbox resolves, not what one would like:
// ten runs of a quiet spell differ by 5-19% between quartiles, and the machine
// has phases of minutes in which everything, set-up included, runs 7-40%
// slower (memory-bound social_hot most). 0.25 is the contract's ceiling.
// benchmarks/results/pr11-baseline.md has the measured spreads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "suite_geomean_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20},
}

// extras are the end-to-end metrics BENCHMARK.json cannot hold. Its contract
// (quoted in benchmarks/README.md) makes every workload report every listed
// metric and forbids a metric that is ever 0: the update and recovery metrics
// exist on social_churn only, and failed_share is 0 on a healthy run (the
// driver gates failures through the result line's "attempted" and "failed").
// They are printed, written to out/<workload>.json and checked by -compare.
var extras = []metricDef{
	{Name: "update_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Workloads: []string{wlSocialChurn}},
	// The median update is a reweight batch, which under contention takes
	// either ~2 ms or ~10 ms; the median sits between the humps and identical
	// runs differ by 28% between quartiles (results/pr11-baseline.md).
	{Name: "update_p50_ms", Unit: "ms", Better: lower, Bound: 0.35, Workloads: []string{wlSocialChurn}},
	{Name: "update_p90_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{wlSocialChurn}},
	{Name: "recovery_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: []string{wlSocialChurn}},
	{Name: "failed_share", Unit: "ratio", Better: lower, Bound: 0},
}

// perLayer are the metrics of a traced run (-trace 1). A workload reports 0
// for a layer it does not drive.
var perLayer = []metricDef{
	{Name: "server.http_roundtrip_us", Unit: "us", Better: lower},
	{Name: "server.http_transport_us", Unit: "us", Better: lower},
	{Name: "server.codec_self_us", Unit: "us", Better: lower},
	{Name: "server.update_codec_self_us", Unit: "us", Better: lower},
	{Name: "server.response_bytes", Unit: "B", Better: lower},
	{Name: "qexec.self_us", Unit: "us", Better: lower},
	{Name: "qexec.hit_path_us", Unit: "us", Better: lower},
	{Name: "qexec.plan_us", Unit: "us", Better: lower},
	{Name: "qexec.cache_us", Unit: "us", Better: lower},
	{Name: "qexec.batch_wait_us", Unit: "us", Better: lower},
	{Name: "qexec.queue_wait_us", Unit: "us", Better: lower},
	{Name: "qexec.run_us", Unit: "us", Better: lower},
	{Name: "qexec.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "qexec.coalesced_share", Unit: "ratio", Better: higher},
	{Name: "qexec.batch_lanes_per_run", Unit: "ratio", Better: higher},
	{Name: "qexec.runs_per_request", Unit: "ratio", Better: lower},
	{Name: "qexec.shed_share", Unit: "ratio", Better: lower},
	{Name: "qexec.fallback_share", Unit: "ratio", Better: lower},
	{Name: "core.spec_run_us", Unit: "us", Better: lower},
	{Name: "core.eager_fusion_road_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.eager_nofusion_road_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.lazy_social_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.eager_social_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.constant_sum_social_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.multi8_social_ns_per_relax", Unit: "ns", Better: lower},
	{Name: "core.rounds", Unit: "count", Better: lower},
	{Name: "core.fused_rounds", Unit: "count", Better: higher},
	{Name: "core.global_syncs", Unit: "count", Better: lower},
	{Name: "core.relaxations", Unit: "count", Better: lower},
	{Name: "core.bucket_inserts", Unit: "count", Better: lower},
	{Name: "core.processed", Unit: "count", Better: lower},
	{Name: "core.work_ratio_vs_dijkstra", Unit: "ratio", Better: lower},
	{Name: "core.fusion_speedup_road", Unit: "ratio", Better: higher},
	{Name: "core.us_per_round_road", Unit: "us", Better: lower},
	{Name: "parallel.barrier_us", Unit: "us", Better: lower},
	{Name: "bucket.lazy_update_ns_per_id", Unit: "ns", Better: lower},
	{Name: "bucket.lazy_next_ns_per_id", Unit: "ns", Better: lower},
	{Name: "bucket.eager_insert_take_ns_per_id", Unit: "ns", Better: lower},
	{Name: "graph.apply_delta_reweight64_ms", Unit: "ms", Better: lower},
	{Name: "graph.apply_delta_topo8_ms", Unit: "ms", Better: lower},
	{Name: "graph.apply_delta_bytes_copied", Unit: "B", Better: lower},
	{Name: "graph.read_binary_ms", Unit: "ms", Better: lower},
	{Name: "graph.write_binary_ms", Unit: "ms", Better: lower},
	{Name: "graph.symmetrize_s", Unit: "s", Better: lower},
	{Name: "livegraph.apply_batch_self_ms", Unit: "ms", Better: lower},
	{Name: "livegraph.durable_self_ms", Unit: "ms", Better: lower},
	{Name: "livegraph.encode_ops_ns_per_op", Unit: "ns", Better: lower},
	{Name: "livegraph.acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "livegraph.compact_ms", Unit: "ms", Better: lower},
	{Name: "livegraph.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "wal.append_nosync_us", Unit: "us", Better: lower},
	{Name: "wal.append_durable_ms", Unit: "ms", Better: lower},
	{Name: "wal.fsyncs_per_batch", Unit: "ratio", Better: lower},
	{Name: "wal.bytes_per_op", Unit: "B", Better: lower},
	{Name: "wal.replay_ops_per_s", Unit: "1/s", Better: higher},
	{Name: "lang.compile_ms", Unit: "ms", Better: lower},
	{Name: "lang.emit_go_ms", Unit: "ms", Better: lower},
	{Name: "lang.dsl_over_algo_ratio_sssp", Unit: "ratio", Better: lower},
	{Name: "lang.dsl_over_algo_ratio_kcore", Unit: "ratio", Better: lower},
	{Name: "gen.road_s", Unit: "s", Better: lower},
	{Name: "gen.rmat_s", Unit: "s", Better: lower},
	{Name: "obs.scrape_ms", Unit: "ms", Better: lower},
	{Name: "trace_overhead_pct", Unit: "%", Better: lower},
}

// appliesTo reports whether d is defined on workload w.
func (d metricDef) appliesTo(w string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, x := range d.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

// expectedMetrics lists what a pass of workload w must report: the gated
// metrics plus w's extras when measured, every per-layer metric when traced.
func expectedMetrics(w string, trace int) []metricDef {
	if trace != 0 {
		return perLayer
	}
	want := append([]metricDef(nil), endToEnd...)
	for _, d := range extras {
		if d.appliesTo(w) {
			want = append(want, d)
		}
	}
	return want
}

// units maps every catalogued metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, extras, perLayer} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// lookupMetric finds name among the trace-0 metrics (gated and extras).
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, extras} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 20

// describeBenchmark renders the catalogue as the repository's BENCHMARK.json.
func describeBenchmark() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, workload(w))
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the catalogue is static data
	}
	return append(b, '\n')
}
