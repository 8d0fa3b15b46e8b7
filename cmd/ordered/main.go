// Command ordered runs the library's ordered graph algorithms from the
// command line with an explicit schedule — the quickest way to reproduce a
// single cell of the paper's tables.
//
// Usage:
//
//	ordered -algo sssp -graph road.bin -src 0 \
//	    -strategy eager_with_fusion -delta 8192
//	ordered -algo kcore -graph social.bin -symmetrize -strategy lazy_constant_sum
//	ordered -algo ppsp -graph g.wel -src 0 -dst 999 -delta 64
//	ordered -algo astar -graph road.bin -src 0 -dst 99999
//	ordered -algo setcover -graph social.bin -symmetrize
//	ordered -algo bellmanford -graph g.wel -src 0      # unordered baseline
//	ordered -algo sssp -graph g.wel -trace trace.jsonl # per-round JSON lines
//	ordered -algo sssp -graph huge.bin -timeout 30s    # bounded run
//	ordered -algo sssp -graph g.wel -round-timeout 5s   # per-round watchdog
//
// -trace writes one JSON object per line ("-" for stdout): a run_start
// record with the schedule and graph shape, one round record per engine
// round (bucket, frontier size, relaxations, wall time, ...), and a
// run_end record with the final counters. -timeout (and ^C) cancel the
// run at the engine's next chunk boundary or round barrier; the partial
// result is still summarized, marked "halted early".
//
// -timeout bounds the whole run; -round-timeout arms the engine's per-round
// watchdog instead, aborting any single round that stalls (with a
// diagnosable StuckError carrying recent round trace events). -stuck-rounds
// aborts after that many consecutive zero-progress rounds; it cannot fire
// on -algo sssp-approx, whose whole drain is one round. A contained
// fault (an edge-function panic, or a watchdog abort) halts the run; the
// process stays alive and prints the partial result.
//
// Algorithm, strategy, and direction names are validated by
// the shared cliutil layer (also used by cmd/graphd), so an unknown name
// fails with one consistent error listing the valid options.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
	"graphit/internal/core"
	"graphit/internal/graph"
)

func main() {
	def := core.DefaultConfig()
	var (
		algoName   = flag.String("algo", "sssp", strings.Join(algo.Names(), " | "))
		graphPath  = flag.String("graph", "", "graph file (.el/.wel/.gr/.bin)")
		src        = flag.Uint("src", 0, "source vertex")
		dst        = flag.Uint("dst", 0, "destination vertex (ppsp/astar)")
		strategy   = flag.String("strategy", def.Strategy.String(), strings.Join(core.StrategyNames(), " | "))
		delta      = flag.Int64("delta", def.Delta, "priority-coarsening factor")
		threshold  = flag.Int("fusion-threshold", def.FusionThreshold, "bucket fusion threshold")
		numBuckets = flag.Int("num-buckets", def.NumBuckets, "materialized lazy buckets")
		direction  = flag.String("direction", def.Direction.String(), strings.Join(core.DirectionNames(), " | "))
		workers    = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		symmetrize = flag.Bool("symmetrize", false, "symmetrize the graph after loading")
		verify     = flag.Bool("verify", false, "verify against the sequential reference")
		tracePath  = flag.String("trace", "", "write per-round JSON lines to this file (\"-\" = stdout)")
		timeout    = flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit)")
		roundTO    = flag.Duration("round-timeout", 0, "abort any single round exceeding this (0 = no watchdog)")
		stuckK     = flag.Int("stuck-rounds", 0, "abort after this many consecutive zero-progress rounds (0 = off)")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "ordered: -graph is required")
		os.Exit(2)
	}
	sp, err := cliutil.ParseAlgo(*algoName)
	fatal(err)
	g, err := graph.LoadFile(*graphPath, graph.BuildOptions{
		Weighted: true, InEdges: true, Symmetrize: *symmetrize,
	})
	fatal(err)
	fatal(sp.CheckGraph(g))
	sched, err := cliutil.ScheduleParams{
		Strategy:        *strategy,
		Delta:           *delta,
		FusionThreshold: *threshold,
		NumBuckets:      *numBuckets,
		Direction:       *direction,
		Workers:         *workers,
		RoundTimeout:    *roundTO,
		StuckRounds:     *stuckK,
	}.Schedule()
	fatal(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *tracePath != "" {
		var w io.Writer
		if *tracePath == "-" {
			w = os.Stdout
			// Keep stdout pure JSON lines; the human summary moves to
			// stderr.
			sumOut = os.Stderr
		} else {
			f, err := os.Create(*tracePath)
			fatal(err)
			// Close is checked: the JSON tracer writes through this handle
			// for the whole run, and a failed close is the only signal that
			// the tail of the trace never made it to disk.
			defer func() { fatal(f.Close()) }()
			w = f
		}
		ctx = graphit.WithTracer(ctx, graphit.NewJSONTracer(w))
	}

	start := time.Now()
	res, err := sp.Run(ctx, g, graphit.VertexID(*src), graphit.VertexID(*dst), sched)
	runErr := halted(err, ctx)
	elapsed := time.Since(start)

	var stats graphit.Stats
	if res != nil {
		stats = res.Stats
	}
	fmt.Fprintf(sumOut, "%s on %s\n", sp.Name, g)
	if runErr != nil {
		fmt.Fprintf(sumOut, "halted early after %d rounds: %v\n", stats.Rounds, runErr)
		fmt.Fprintf(sumOut, "result (partial): %s\n", summarize(sp, res, *src, *dst))
	} else {
		fmt.Fprintf(sumOut, "result: %s\n", summarize(sp, res, *src, *dst))
		if *verify {
			verifyAgainstRef(sp, g, res, *src, *dst)
		}
	}
	fmt.Fprintf(sumOut, "time:   %.4fs\n", elapsed.Seconds())
	fmt.Fprintf(sumOut, "stats:  %s\n", stats)
}

// sumOut receives the human-readable summary; it switches to stderr when
// the JSON trace owns stdout.
var sumOut io.Writer = os.Stdout

// halted separates conditions that leave a meaningful partial result —
// cancellation (-timeout, ^C), a contained engine panic, or a watchdog
// abort (-round-timeout, -stuck-rounds) — from real failures (fatal). For
// the former the error is returned and the partial result is summarized;
// the process stays alive either way. A nil err passes through.
func halted(err error, ctx context.Context) error {
	if err == nil || ctx.Err() != nil {
		return err
	}
	if graphit.IsEngineFault(err) {
		return err
	}
	fatal(err)
	return err
}

// summarize renders the kind-appropriate one-line result.
func summarize(sp *algo.Spec, res *algo.QueryResult, src, dst uint) string {
	if res == nil {
		return "no result"
	}
	switch sp.Kind {
	case algo.KindPair:
		return fmt.Sprintf("dist(%d -> %d) = %s", src, dst, distCell(res.Values[dst]))
	case algo.KindCoreness:
		max := int64(0)
		for _, c := range res.Values {
			if c > max {
				max = c
			}
		}
		return fmt.Sprintf("max coreness %d over %d vertices", max, len(res.Values))
	case algo.KindCover:
		return fmt.Sprintf("cover size = %d sets", res.NumChosen)
	default: // KindDist
		reached, max := 0, int64(0)
		for _, d := range res.Values {
			if d != graphit.Unreached {
				reached++
				if d > max {
					max = d
				}
			}
		}
		return fmt.Sprintf("%d of %d vertices reached, max dist %d", reached, len(res.Values), max)
	}
}

// verifyAgainstRef checks the run's output against the spec's sequential
// reference: full-vector equality for exact algorithms, destination-only
// equality for the early-terminating pair searches, and a cover-size report
// for the approximate set cover.
func verifyAgainstRef(sp *algo.Spec, g *graphit.Graph, res *algo.QueryResult, src, dst uint) {
	ref, err := sp.Ref(g, graphit.VertexID(src), graphit.VertexID(dst))
	fatal(err)
	switch {
	case sp.Kind == algo.KindCover:
		fmt.Fprintf(sumOut, "verify: cover size %d vs sequential greedy %d (approximate; equality not required)\n",
			res.NumChosen, ref.NumChosen)
	case sp.Kind == algo.KindPair:
		if res.Values[dst] != ref.Values[dst] {
			fatal(fmt.Errorf("verification failed at vertex %d: got %s, want %s",
				dst, distCell(res.Values[dst]), distCell(ref.Values[dst])))
		}
		fmt.Fprintln(sumOut, "verify: OK (matches sequential reference)")
	case !sp.Exact:
		fmt.Fprintln(sumOut, "verify: skipped (approximate algorithm)")
	default:
		for i := range ref.Values {
			if res.Values[i] != ref.Values[i] {
				fatal(fmt.Errorf("verification failed at vertex %d: got %d, want %d", i, res.Values[i], ref.Values[i]))
			}
		}
		fmt.Fprintln(sumOut, "verify: OK (matches sequential reference)")
	}
}

func distCell(d int64) string {
	if d == graphit.Unreached {
		return "unreachable"
	}
	return fmt.Sprintf("%d", d)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordered:", err)
		os.Exit(1)
	}
}
