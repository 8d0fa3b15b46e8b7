package livegraph

import (
	"fmt"

	"graphit/internal/graph"
)

// CompactNow audits the current snapshot's graph and replaces it with a
// from-scratch rebuild (sorted adjacency, fresh arrays, validated on both
// sides) at the same epoch. Nothing needs it to keep serving — every epoch
// is already a complete CSR — so only operators, drills and the spine's
// probe call it. It holds the writer lock, so batches wait and readers do
// not, and runs under panic containment: any panic — injected or real —
// becomes an error and the current snapshot keeps serving.
func (l *Live) CompactNow() (err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed || !l.mutable {
		return nil // a symmetrized graph never left the arrays it was built with
	}
	old := l.cur
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("livegraph: compaction panic: %v", r)
		}
		if err != nil {
			l.compactFailures.Add(1)
			l.lastCompactErr.Store(err.Error())
		}
	}()
	attempt := l.compactAttempts.Add(1)
	fresh, err := l.rebuild(old.g, attempt)
	if err != nil {
		return err
	}
	if l.cfg.FaultHook != nil {
		l.cfg.FaultHook(PhaseCompactSwap, attempt, 0)
	}
	pl := l.planes.adopt(fresh)
	next := l.newSnapshot(old.epoch, fresh, pl)
	l.mu.Lock()
	l.cur = next
	l.mu.Unlock()
	l.planes.commit(pl, nil)
	old.Release()
	l.compactions.Add(1)
	l.lastCompactErr.Store("")
	return nil
}

// rebuild audits src and reconstructs it from scratch through the batch
// builder.
func (l *Live) rebuild(src *graph.Graph, attempt int64) (*graph.Graph, error) {
	if l.cfg.FaultHook != nil {
		l.cfg.FaultHook(PhaseCompactBuild, attempt, 0)
	}
	if err := graph.Validate(src); err != nil {
		return nil, fmt.Errorf("livegraph: pre-compaction audit: %w", err)
	}
	fresh, err := graph.Build(src.Edges(), graph.BuildOptions{
		NumVertices: src.NumVertices(),
		Weighted:    src.Weighted(),
		InEdges:     src.HasInEdges(),
		Coords:      src.Coord,
	})
	if err != nil {
		return nil, fmt.Errorf("livegraph: compaction rebuild: %w", err)
	}
	if fresh.NumEdges() != src.NumEdges() {
		return nil, fmt.Errorf("livegraph: compaction changed edge count: %d -> %d",
			src.NumEdges(), fresh.NumEdges())
	}
	if err := graph.Validate(fresh); err != nil {
		return nil, fmt.Errorf("livegraph: post-compaction audit: %w", err)
	}
	return fresh, nil
}
