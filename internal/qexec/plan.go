package qexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
	"graphit/internal/livegraph"
)

// MaxDeltaFactor bounds a request's ∆ at this multiple of max(1, the
// snapshot's largest edge weight). Above about the heaviest edge, a larger ∆
// only merges buckets and turns a lazy run into a label-correcting sweep:
// on the 350×350 road grid (weights up to 1 175) ∆=2⁴⁰ does ~20× the work of
// ∆=2048. 8× still admits every ∆ a tuned schedule picks.
const MaxDeltaFactor = 8

// ErrDeltaBound is the request error (CodeBadRequest) for a ∆ above
// MaxDeltaFactor × max(1, the graph's largest edge weight).
var ErrDeltaBound = errors.New("delta above the graph's bound")

// Request is the transport-agnostic form of one query — the fields a JSON
// body or a CLI invocation carries, before validation. Zero values mean
// "use the pipeline defaults".
type Request struct {
	// Algo is the algorithm name (see algo.Names).
	Algo string
	// Graph names one of the graphs the pipeline was configured with.
	Graph string
	// Src / Dst are the source and (for pair algorithms) destination
	// vertices.
	Src uint32
	Dst uint32
	// Strategy / Direction / Delta / NumBuckets select the primary
	// schedule by name; empty/zero uses the pipeline defaults.
	Strategy   string
	Direction  string
	Delta      int64
	NumBuckets int
	// BudgetMS is the caller's wall-clock budget in milliseconds, clamped
	// to the pipeline's [min, max] range; 0 uses the default.
	BudgetMS int64
	// Vertices asks for the result values of specific vertices.
	Vertices []uint32
}

// Plan is a validated, canonical, fully-defaulted execution plan: every
// by-name field resolved, every default materialized, the budget clamped,
// and a stable cache key derived. Two Requests that mean the same query
// produce byte-identical CacheKeys.
type Plan struct {
	Spec *algo.Spec
	// Graph is the pinned snapshot's frozen graph; Snap holds the epoch
	// reference that keeps it immutable for the plan's lifetime (the
	// pipeline releases it when the request finishes). Epoch is baked into
	// CacheKey, so a cached answer can never cross a mutation.
	Graph     *graphit.Graph
	Snap      *livegraph.Snapshot
	Epoch     uint64
	GraphName string
	Src, Dst  graphit.VertexID
	Sched     graphit.Schedule
	// Params are the normalized schedule params (the fallback schedule is
	// derived from them on a fault).
	Params cliutil.ScheduleParams
	// Strategy is the canonical primary-strategy name (breaker key axis).
	Strategy string
	Budget   time.Duration
	Vertices []uint32
	// CacheKey identifies the plan's result: algorithm, graph, sources,
	// canonical schedule, and the vertices selection. The budget is
	// deliberately excluded — a cached result satisfies any budget.
	CacheKey string
}

// BreakerKey is the (algo, strategy) axis the circuit breakers are keyed
// by — the schedule axis the paper shows is workload-dependent.
func (pl *Plan) BreakerKey() string { return pl.Spec.Name + "/" + pl.Strategy }

// flightKey keys the coalescer. It adds the budget to the cache key: plans
// that differ only in budget still produce the same result, but sharing a
// run between them would let a short budget truncate a long one's answer.
func (pl *Plan) flightKey() string {
	return pl.CacheKey + "|budget=" + pl.Budget.String()
}

// batchKey keys the batch-coalescing stage: everything a multi-source run
// must agree on — algorithm, graph, epoch, canonical schedule, and budget —
// with src, dst, and the vertices selection deliberately excluded. Plans
// sharing a batchKey differ only per lane, so one k-lane engine run answers
// all of them.
func (pl *Plan) batchKey() string {
	return fmt.Sprintf("%s|%s|epoch=%d|%s|budget=%s",
		pl.Spec.Name, pl.GraphName, pl.Epoch, pl.Params.CanonicalKey(), pl.Budget)
}

// batchable reports whether pl may join a multi-source batch: the algorithm
// must have a lane-parallel entry point and the schedule must be lazy
// bucketing, the only strategy the k-lane engine supports.
func (pl *Plan) batchable() bool {
	return pl.Spec.RunMulti != nil && pl.Params.Strategy == "lazy"
}

// plan validates req against the registry and the loaded graphs and
// resolves it to a canonical Plan holding a pinned epoch snapshot. All
// failures here are request errors (CodeBadRequest) — except a live graph
// that has already shut down, which is ErrDraining — and they never reach
// the engine or the breaker. On success the caller owns one Release of
// pl.Snap; on error the snapshot has already been released.
func (p *Pipeline) plan(req *Request) (pl *Plan, err error) {
	sp, err := cliutil.ParseAlgo(req.Algo)
	if err != nil {
		return nil, err
	}
	// Bound the vertices selection before touching any graph state: every
	// requested vertex is echoed into the summary, so an unbounded selection
	// lets one request mint an arbitrarily large response (and cache entry).
	if max := p.cfg.MaxVertices; len(req.Vertices) > max {
		return nil, fmt.Errorf("requested %d vertices, limit is %d", len(req.Vertices), max)
	}
	live, ok := p.live[req.Graph]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q (loaded: %s)", req.Graph, p.graphNames())
	}
	snap := live.Acquire()
	if snap == nil {
		return nil, ErrDraining
	}
	defer func() {
		if err != nil {
			snap.Release()
		}
	}()
	g := snap.Graph()
	if err := sp.CheckGraph(g); err != nil {
		return nil, err
	}
	n := uint32(g.NumVertices())
	if req.Src >= n {
		return nil, fmt.Errorf("src %d out of range (graph has %d vertices)", req.Src, n)
	}
	dst := req.Dst
	if sp.NeedsDst {
		if dst >= n {
			return nil, fmt.Errorf("dst %d out of range (graph has %d vertices)", dst, n)
		}
	} else {
		// Canonicalize: algorithms without a destination ignore it, so it
		// must not fragment the cache key.
		dst = 0
	}
	for _, v := range req.Vertices {
		if v >= n {
			return nil, fmt.Errorf("requested vertex %d out of range (graph has %d vertices)", v, n)
		}
	}
	params := cliutil.ScheduleParams{
		Strategy:   req.Strategy,
		Direction:  req.Direction,
		Delta:      req.Delta,
		NumBuckets: req.NumBuckets,
		Workers:    p.cfg.Workers,
		// The pipeline always arms the watchdogs: a query is untrusted, and
		// a stalled round must not pin a run slot for longer than the budget.
		RoundTimeout: p.cfg.RoundTimeout,
		StuckRounds:  p.cfg.StuckRounds,
	}
	norm, sched, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	if bound := MaxDeltaFactor * max(1, int64(g.MaxWeight())); norm.Delta > bound {
		return nil, fmt.Errorf("%w: delta %d > %d (%d × max(1, the graph's largest edge weight %d))",
			ErrDeltaBound, norm.Delta, bound, MaxDeltaFactor, g.MaxWeight())
	}
	pl = &Plan{
		Spec:      sp,
		Graph:     g,
		Snap:      snap,
		Epoch:     snap.Epoch(),
		GraphName: req.Graph,
		Src:       graphit.VertexID(req.Src),
		Dst:       graphit.VertexID(dst),
		Sched:     sched,
		Params:    norm,
		Strategy:  norm.Strategy,
		Budget:    p.clampBudget(req.BudgetMS),
		Vertices:  req.Vertices,
	}
	pl.CacheKey = cacheKey(sp.Name, req.Graph, pl.Epoch, req.Src, dst, norm, req.Vertices)
	return pl, nil
}

// cacheKey renders the result-determining plan coordinates as one stable
// string. The graph epoch is part of the key — a mutation makes every
// prior answer for that graph unreachable, and a cached answer can never
// be served across epochs. The vertices selection is also keyed — a
// cached full-vector answer must never be served to a different selection
// — hashed (FNV-1a over the raw ids, plus the count) rather than spelled
// out, so a 10⁶-vertex selection stays a fixed-size key.
func cacheKey(algoName, graphName string, epoch uint64, src, dst uint32, norm cliutil.ScheduleParams, vertices []uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range vertices {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s|%s|epoch=%d|src=%d|dst=%d|%s|v=%d:%016x",
		algoName, graphName, epoch, src, dst, norm.CanonicalKey(), len(vertices), h.Sum64())
}

// clampBudget clamps the caller's requested budget to the pipeline's range:
// 0 takes the default, anything below minBudget is floored (a shorter
// deadline cannot fit one round), and anything above MaxBudget is capped.
// The floor runs before the cap so MaxBudget is a hard ceiling: the old
// order (cap, then floor) let a misconfigured MaxBudget below minBudget
// grant every query a budget above the configured maximum. New rejects that
// configuration outright, and this order keeps the cap authoritative even
// if the two bounds ever collide again.
func (p *Pipeline) clampBudget(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = p.cfg.DefaultBudget
	}
	if d < minBudget {
		d = minBudget
	}
	if d > p.cfg.MaxBudget {
		d = p.cfg.MaxBudget
	}
	return d
}

func (p *Pipeline) graphNames() string {
	names := make([]string, 0, len(p.live))
	for name := range p.live {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
