// Package parallel provides the shared-memory parallel substrate used by the
// ordered-graph engines: a parallel region (Run) and a dynamically scheduled
// chunked parallel-for (ForChunks). It has no scan or pack: the engines
// collect what their workers find in per-worker lists and concatenate them.
//
// The design mirrors the execution model of the Cilk/OpenMP runtimes used by
// the paper's C++ frameworks: a fixed pool of workers, each of which may keep
// worker-local state (e.g. the thread-local bucket bins of the eager engine),
// with a join between phases.
//
// Every loop runs on an Executor: a persistent worker pool with a fixed,
// immutable count. A run checks one out for itself (Acquire / Release),
// sized by its schedule's worker count, so concurrent runs with different
// counts are isolated and rounds reuse parked goroutines instead of
// spawning. There is no process-global worker count.
package parallel

import "runtime"

// DefaultGrain is the default number of iterations handed to a worker at a
// time by dynamic scheduling. It matches the "dynamic, 64" OpenMP schedule
// used by the generated code in the paper (Figure 9(c), line 15).
const DefaultGrain = 64

// Workers returns the worker count an executor gets when none is requested:
// GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }
