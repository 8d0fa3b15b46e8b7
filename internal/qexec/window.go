package qexec

import (
	"context"
	"errors"
	"sync"
	"time"

	"graphit"
)

// ErrFlightAbandoned is the error every waiter of a group observes when the
// group's leader panicked out of the run without delivering outcomes.
var ErrFlightAbandoned = errors.New("shared run abandoned: leader panicked")

// lane is one distinct plan (flight key) in a group, with any number of
// requests waiting on it. out is set by the group's leader before the
// group's done channel closes; nil after done means the leader panicked.
type lane struct {
	pl   *Plan
	fkey string // the key it is published under while Coalesce is on
	g    *group
	out  *Outcome
}

// group is the lanes one engine run answers: the plans that shared a batch
// key while its admission window was open, or a single lane when the plan is
// not batchable or the window is off. The request that opened the group is
// its leader and executes all of it; once sealed, lanes is immutable.
type group struct {
	lanes []*lane
	max   int           // lanes at which the window seals early
	full  chan struct{} // closed when the group fills to max
	done  chan struct{} // closed after every lane's out is set
}

// runFunc executes a sealed group's lanes and returns one Outcome per lane,
// in order. windowed reports that the group went through an admission window.
type runFunc func(lanes []*lane, windowed bool) []*Outcome

// windows is the one keyed-window stage between the cache and the admit →
// route → run tail. It merges work at two grains: a request whose flight key
// matches a lane of an unfinished group attaches to that lane (Coalesce) for
// the run's whole lifetime, and a batchable plan whose batch key matches a
// group still inside its window becomes a new lane of it (BatchWindow).
// Everything else is a group of one, sealed at birth.
type windows struct {
	coalesce bool
	window   time.Duration
	maxLanes int

	mu    sync.Mutex
	lanes map[string]*lane  // flight key → lane of an unfinished group (Coalesce only)
	open  map[string]*group // batch key → group still inside its window

	// Counters for Status: lanes created / requests attached while Coalesce
	// is on; windows opened, and how they closed.
	leaders, coalesced                  int64
	opened, multiRuns, multiLanes, solo int64
}

func newWindows(coalesce bool, window time.Duration, maxLanes int) *windows {
	return &windows{
		coalesce: coalesce, window: window, maxLanes: maxLanes,
		lanes: make(map[string]*lane), open: make(map[string]*group),
	}
}

// wait blocks until the lane's group is done or the waiter's own ctx ends —
// a waiter that gives up gets CodeClientGone alone; its lane stays and is
// still computed (and cached) for everyone else.
func (ln *lane) wait(ctx context.Context) *Outcome {
	select {
	case <-ln.g.done:
		if ln.out != nil {
			out := *ln.out // shallow copy; Summary/Stats are shared read-only
			return &out
		}
		return ln.pl.outcome(CodeFault, ErrFlightAbandoned)
	case <-ctx.Done():
		return ln.pl.outcome(CodeClientGone, ctx.Err())
	}
}

// do carries pl through the stage: attach to an identical in-flight lane,
// join an open group as a new lane, or open a group and lead it — hold the
// window, seal, execute every lane via run, deliver.
func (w *windows) do(ctx context.Context, pl *Plan, et *execTrace, run runFunc) *Outcome {
	t := time.Now()
	windowed := w.window > 0 && pl.batchable()
	var fkey, bkey string
	if w.coalesce {
		fkey = pl.flightKey()
	}
	if windowed {
		bkey = pl.batchKey()
	}

	w.mu.Lock()
	if ln, ok := w.lanes[fkey]; ok {
		w.coalesced++
		w.mu.Unlock()
		out := ln.wait(ctx)
		out.Coalesced = true
		et.coalesceWait = time.Since(t)
		return out
	}
	ln := &lane{pl: pl, fkey: fkey}
	g, leader := w.open[bkey], false
	if g == nil {
		leader = true
		g = &group{max: 1, done: make(chan struct{})}
		if windowed {
			// Never form a group the lane kernel's id space cannot hold.
			g.max = min(w.maxLanes, graphit.MaxLanesFor(pl.Graph.NumVertices()))
			g.full = make(chan struct{})
			w.open[bkey] = g
			w.opened++
		}
	}
	ln.g = g
	g.lanes = append(g.lanes, ln)
	if windowed && len(g.lanes) >= g.max {
		delete(w.open, bkey)
		close(g.full)
	}
	if w.coalesce {
		w.lanes[fkey] = ln
		w.leaders++
	}
	w.mu.Unlock()

	if !leader {
		out := ln.wait(ctx)
		out.Batched = true
		et.batchWait = time.Since(t)
		return out
	}
	if windowed {
		timer := time.NewTimer(w.window)
		select {
		case <-timer.C:
		case <-g.full:
			timer.Stop()
		}
		w.seal(bkey, g)
		et.batchWait = time.Since(t)
	}
	// Unpublish and release in a defer, so a panicking run neither poisons
	// the keys (later identical requests start fresh) nor strands the
	// waiters: they observe their nil lane.out as ErrFlightAbandoned. The
	// panic itself still propagates to the leader's caller.
	defer w.finish(g)
	outs := run(g.lanes, windowed)
	for i, l := range g.lanes {
		l.out = outs[i]
	}
	return ln.out
}

// seal closes g's window to new lanes (a no-op when it already filled) and
// records how it closed.
func (w *windows) seal(bkey string, g *group) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.open[bkey] == g {
		delete(w.open, bkey)
	}
	if k := len(g.lanes); k > 1 {
		w.multiRuns++
		w.multiLanes += int64(k)
	} else {
		w.solo++
	}
}

// finish unpublishes g's lanes, then releases its waiters — in that order: a
// request arriving after completion must start a fresh lane (whether it is
// then served by the cache is the cache stage's decision, not this one's).
func (w *windows) finish(g *group) {
	if w.coalesce {
		w.mu.Lock()
		for _, ln := range g.lanes {
			delete(w.lanes, ln.fkey)
		}
		w.mu.Unlock()
	}
	close(g.done)
}

// CoalesceStatus is the externally visible state of lane sharing (all zero
// when Coalesce is off).
type CoalesceStatus struct {
	// Leaders counts lanes that actually ran; Coalesced counts requests
	// served by attaching to another request's lane.
	Leaders   int64 `json:"leaders"`
	Coalesced int64 `json:"coalesced"`
}

// BatchStatus is the externally visible state of the admission windows (all
// zero when BatchWindow is off).
type BatchStatus struct {
	WindowMS int64 `json:"window_ms"`
	MaxLanes int   `json:"max_lanes"`
	// Windows counts admission windows opened; MultiRuns the windows that
	// closed with ≥2 lanes and executed as one multi-source run; Lanes the
	// total lanes those runs carried; Solo the windows that closed with a
	// single occupant and ran as one-lane lane-kernel runs (nothing shared).
	Windows   int64 `json:"windows"`
	MultiRuns int64 `json:"multi_runs"`
	Lanes     int64 `json:"lanes"`
	Solo      int64 `json:"solo"`
}

func (w *windows) status() (cs CoalesceStatus, bs BatchStatus) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs = CoalesceStatus{Leaders: w.leaders, Coalesced: w.coalesced}
	if w.window > 0 {
		bs = BatchStatus{
			WindowMS: w.window.Milliseconds(), MaxLanes: w.maxLanes,
			Windows: w.opened, MultiRuns: w.multiRuns, Lanes: w.multiLanes, Solo: w.solo,
		}
	}
	return cs, bs
}
