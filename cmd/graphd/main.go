// Command graphd is a long-running daemon serving ordered-graph queries
// over HTTP/JSON. It loads its graphs once at startup and treats every
// query as untrusted: a keyed result cache and singleflight coalescing
// absorb repeated and concurrent identical queries before they cost an
// engine run, admission control sheds overload fast (429 + Retry-After),
// client budgets become context deadlines plus engine round watchdogs,
// consecutive contained faults trip a per-(algo, strategy) circuit breaker
// that re-routes to a safe serial fallback schedule, and SIGTERM drains
// gracefully (readiness flips, in-flight queries finish under a deadline).
// With -batch-window, concurrent lazy-strategy queries that agree on
// everything but their source collect for a short admission window and
// execute as one multi-source ∆-stepping run, each answered and cached
// under its own single-source identity.
//
// With -mutable, POST /update applies atomic edge-mutation batches (add /
// remove / reweight) to directed graphs. Each batch advances the graph's
// epoch; queries pin an epoch snapshot for their whole run and the result
// cache is epoch-keyed, so in-flight and cached answers are never torn
// across a mutation. Every epoch is a complete CSR built in time
// proportional to its batch, so there is no backlog and no compactor.
//
// With -mutable and -data-dir, mutations are durable: every acked batch is
// appended to a per-graph write-ahead log (fsync policy: -wal-sync) before
// the client sees 200, periodic checkpoints bound replay, and on restart
// graphd recovers each graph — newest valid checkpoint plus WAL replay —
// while the already-bound listener serves 503 (liveness stays ok, readiness
// says "recovering") until the recovered state is queryable.
//
// Usage:
//
//	graphd -graph road=road.bin -graph social=social.wel -addr :8090 -mutable
//	curl localhost:8090/readyz
//	curl -d '{"algo":"sssp","graph":"road","src":0}' localhost:8090/query
//	curl -d '{"graph":"road","ops":[{"op":"reweight","src":0,"dst":401,"w":3}]}' localhost:8090/update
//	curl localhost:8090/statusz
//	curl localhost:8090/metrics
//	curl localhost:8090/debug/queries
//
// Endpoints: POST /query, POST /update (with -mutable), GET /healthz,
// GET /readyz, GET /statusz, GET /metrics (Prometheus text format),
// GET /debug/queries (recent per-query structured traces).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"graphit"
	"graphit/internal/graph"
	"graphit/internal/server"
	"graphit/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		symmetrize = flag.Bool("symmetrize", false, "symmetrize every graph after loading (required for kcore/setcover)")
		workers    = flag.Int("workers", 0, "engine workers per run (0 = GOMAXPROCS)")
		maxConc    = flag.Int("max-concurrent", 0, "concurrent run slots (0 = min(GOMAXPROCS, executor pool cap))")
		queueDepth = flag.Int("queue-depth", 0, "bounded admission queue (0 = 2*max-concurrent)")
		defBudget  = flag.Duration("default-budget", 2*time.Second, "per-query budget when the client sends none")
		maxBudget  = flag.Duration("max-budget", 30*time.Second, "per-query budget ceiling")
		roundTO    = flag.Duration("round-timeout", 5*time.Second, "engine round watchdog, armed for every query")
		stuckK     = flag.Int("stuck-rounds", 256, "engine no-progress detector, armed for every query")
		brkThresh  = flag.Int("breaker-threshold", 3, "consecutive engine faults that trip an (algo, strategy) breaker")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "time an open breaker waits before half-opening")
		drainTO    = flag.Duration("drain-timeout", 15*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		cacheN     = flag.Int("cache-entries", 1024, "result cache capacity in entries (0 disables the cache)")
		cacheTTL   = flag.Duration("cache-ttl", time.Minute, "result cache entry lifetime")
		coalesce   = flag.Bool("coalesce", true, "coalesce concurrent identical queries into one engine run")
		batchWin   = flag.Duration("batch-window", 0, "collect concurrent same-shape different-src lazy queries for this long and run them as one multi-source batch (0 disables)")
		batchLanes = flag.Int("batch-max-lanes", 0, "max query lanes per batched multi-source run (0 = default, 8)")
		maxVerts   = flag.Int("max-vertices", 0, "max per-request vertices selection (0 = default, 4096)")
		metricsOn  = flag.Bool("metrics", true, "serve Prometheus metrics at /metrics (per-stage and per-(algo, strategy) engine histograms)")
		traceRing  = flag.Int("trace-ring", 256, "per-query structured traces retained for /debug/queries (0 disables)")
		mutable    = flag.Bool("mutable", false, "accept edge-mutation batches at POST /update (directed graphs only)")
		maxBatch   = flag.Int("max-batch-ops", 0, "max ops per /update batch (0 = livegraph default, 8192)")
		dataDir    = flag.String("data-dir", "", "durability root: each mutable graph gets a WAL + checkpoint store under <data-dir>/<name> (requires -mutable; empty disables durability)")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync before ack), interval (background fsync every -wal-sync-every), none (OS page cache only)")
		walEvery   = flag.Duration("wal-sync-every", 100*time.Millisecond, "background fsync period for -wal-sync=interval")
		ckptOps    = flag.Int("checkpoint-ops", 0, "applied ops between checkpoints (0 = default, 65536)")
	)
	// Graph specs are collected during parse and loaded afterwards, so the
	// -symmetrize flag applies regardless of flag order.
	var graphSpecs []string
	flag.Func("graph", "graph to serve, as name=path (repeatable)", func(v string) error {
		if _, _, ok := strings.Cut(v, "="); !ok {
			return fmt.Errorf("want name=path, got %q", v)
		}
		graphSpecs = append(graphSpecs, v)
		return nil
	})
	flag.Parse()
	if len(graphSpecs) == 0 {
		fmt.Fprintln(os.Stderr, "graphd: at least one -graph name=path is required")
		os.Exit(2)
	}
	graphs := make(map[string]*graphit.Graph, len(graphSpecs))
	for _, spec := range graphSpecs {
		name, path, _ := strings.Cut(spec, "=")
		if name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "graphd: -graph wants name=path, got %q\n", spec)
			os.Exit(2)
		}
		if _, dup := graphs[name]; dup {
			fmt.Fprintf(os.Stderr, "graphd: duplicate graph name %q\n", name)
			os.Exit(2)
		}
		g, err := graph.LoadFile(path, graph.BuildOptions{
			Weighted: true, InEdges: true, Symmetrize: *symmetrize,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphd:", err)
			os.Exit(1)
		}
		graphs[name] = g
		log.Printf("loaded %s: %v", name, g)
	}

	syncMode, err := wal.ParseSyncMode(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		os.Exit(2)
	}
	if *dataDir != "" && !*mutable {
		fmt.Fprintln(os.Stderr, "graphd: -data-dir requires -mutable (durability logs mutations; a read-only server has none)")
		os.Exit(2)
	}

	// Bind the listener before recovery so a restarting graphd is reachable
	// immediately: /healthz answers ok (don't kill the pod), /readyz answers
	// 503 "recovering" (don't route traffic). server.New replays the WAL
	// synchronously; when it returns, the real handler swaps in atomically.
	var handler atomic.Value
	handler.Store(server.RecoveringHandler())
	hs := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	if *dataDir != "" {
		log.Printf("graphd listening on %s (recovering %d graphs from %s)", *addr, len(graphs), *dataDir)
	}

	srv, err := server.New(server.Config{
		Graphs:           graphs,
		MaxConcurrent:    *maxConc,
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		DefaultBudget:    *defBudget,
		MaxBudget:        *maxBudget,
		RoundTimeout:     *roundTO,
		StuckRounds:      *stuckK,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		CacheEntries:     *cacheN,
		CacheTTL:         *cacheTTL,
		Coalesce:         *coalesce,
		BatchWindow:      *batchWin,
		BatchMaxLanes:    *batchLanes,
		MaxVertices:      *maxVerts,
		Metrics:          *metricsOn,
		TraceRing:        *traceRing,
		Mutable:          *mutable,
		MaxBatchOps:      *maxBatch,
		DataDir:          *dataDir,
		WALSync:          syncMode,
		WALSyncEvery:     *walEvery,
		CheckpointOps:    *ckptOps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		os.Exit(1)
	}
	for name, info := range srv.Recovery() {
		log.Printf("recovered %s: epoch %d (checkpoint %d, %d batches replayed, %v)",
			name, info.Epoch, info.CheckpointEpoch, info.Replayed, info.Duration.Round(time.Microsecond))
	}
	handler.Store(srv.Handler())
	log.Printf("graphd listening on %s (%d graphs)", *addr, len(graphs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("graphd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("graphd: draining (deadline %v)", *drainTO)

	// Drain order: readiness flips and admission closes first (srv.Shutdown),
	// then the HTTP server stops accepting and waits for handlers.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("graphd: http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Fatalf("graphd: %v", drainErr)
	}
	log.Printf("graphd: drained cleanly")
}
