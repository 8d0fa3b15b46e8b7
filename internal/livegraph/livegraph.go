// Package livegraph serves a mutating graph with snapshot isolation.
//
// A Live wraps the immutable CSR substrate (internal/graph) with batched
// mutations and epoch-numbered, refcounted snapshot handles. Queries
// Acquire a snapshot at plan time and hold it for their whole run; a
// mutation batch materializes the next epoch's complete CSR beside it and
// advances the epoch with a pointer swap, so a reader can never observe a
// torn view. Every epoch is a flat CSR: no overlay for the kernels to
// consult, nothing for a background thread to fold, and producing one costs
// what its batch touches — a weight-only batch writes into a retired weight
// plane (planes.go), a topology batch merges only the vertices it names
// (graph.ApplyDelta). CompactNow, the synchronous audit-and-rebuild, runs
// only when asked.
//
// Ownership rules (see DESIGN.md §11):
//   - Live owns exactly one reference to the current snapshot; every
//     Acquire adds one and must be paired with exactly one Release.
//   - A snapshot is reclaimed (counted out of snapshots_active) at the
//     moment its last reference is released — never earlier, never later —
//     and from that moment its weights may be overwritten: a graph obtained
//     from a snapshot must not be read after the Release.
//   - Only weight planes this Live allocated are ever written again: never
//     the caller's base graph, never a plane two snapshots share.
//   - Epochs only advance on mutation. CompactNow keeps the epoch, so
//     epoch-keyed result caches stay warm across it and can never serve a
//     stale answer across a mutation.
package livegraph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/obs"
	"graphit/internal/wal"
)

// Sentinel errors, ordered roughly by how the transport maps them:
// validation failures are client errors (400), ErrBatchTooLarge is a
// client error with a documented limit (400), ErrImmutable is a conflict
// with the graph's build mode (409), ErrClosed means the server is
// draining (503).
var (
	ErrValidation    = errors.New("livegraph: invalid batch")
	ErrBatchTooLarge = errors.New("livegraph: batch exceeds max ops")
	ErrImmutable     = errors.New("livegraph: graph is immutable")
	ErrClosed        = errors.New("livegraph: closed")
	// ErrDurability means the write-ahead log could not make the batch
	// durable (failed append or fsync). The store is poisoned fail-stop:
	// reads keep serving, every further mutation is refused (503).
	ErrDurability = errors.New("livegraph: durability failure")
)

// Compaction checkpoint phases, fired through the configured
// core.FaultHook so internal/faults can inject panics/delays at them.
// The round argument carries the CompactNow attempt number (1-based,
// monotone per Live) — deliberately not the epoch, so a repeating
// injection can never pin one epoch into permanent failure: the next
// attempt is a new round and gets a fresh roll.
const (
	PhaseCompactBuild = "livegraph_compact_build"
	PhaseCompactSwap  = "livegraph_compact_swap"
)

// OpKind enumerates mutation operations.
type OpKind uint8

const (
	OpAdd OpKind = iota + 1
	OpRemove
	OpReweight
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReweight:
		return "reweight"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one edge mutation. Ops within a batch apply sequentially: add
// then reweight adjusts the pending add, add then remove cancels out,
// remove then add replaces the edge. W is ignored for OpRemove and for
// adds to unweighted graphs.
type Op struct {
	Kind OpKind
	Src  graph.VertexID
	Dst  graph.VertexID
	W    graph.Weight
}

// Config tunes a Live. The zero value is usable: defaults are filled in
// by New.
type Config struct {
	// MaxBatchOps caps a single ApplyBatch (default 8192).
	MaxBatchOps int
	// CompactThreshold is ignored: nothing compacts by itself any more. The
	// field, Status.Compactions/OverlayOps and server.UpdateResponse's
	// OverlayOps stay only because benchmarks/spine compiles against them —
	// the next benchmark-typed PR can drop its uses, then these go.
	CompactThreshold int
	// CheckpointOps is how many applied ops may accumulate after the last
	// checkpoint before a new one is cut (default 65536). Only meaningful
	// for Lives opened through Recover.
	CheckpointOps int
	// Metrics, when non-nil, receives livegraph_* series labeled by graph.
	Metrics *obs.Registry
	// FaultHook, when non-nil, is fired at the Phase* checkpoints; tests
	// install an internal/faults Injector here.
	FaultHook core.FaultHook
	// OnReclaim, when non-nil, is called each time a snapshot's last
	// reference is released (drills assert reclamation exactness).
	OnReclaim func(epoch uint64)
}

func (c *Config) fill() {
	if c.MaxBatchOps <= 0 {
		c.MaxBatchOps = 8192
	}
	if c.CheckpointOps <= 0 {
		c.CheckpointOps = 1 << 16
	}
}

// Snapshot is a refcounted handle on one epoch's graph. The graph behind
// it is immutable for the handle's lifetime; Release it exactly once.
type Snapshot struct {
	l     *Live
	epoch uint64
	g     *graph.Graph
	pl    *plane // g's weight pair when this Live may write it again; else nil
	refs  atomic.Int64
}

// Graph returns the frozen graph this handle pins.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Epoch returns the epoch number this handle pins.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release drops one reference. When the last reference goes, the snapshot
// is reclaimed (snapshots_active decremented, its plane retired for reuse,
// OnReclaim fired) and its Graph must no longer be read. Releasing more
// times than acquired panics — that is a refcount bug, not a recoverable
// condition.
func (s *Snapshot) Release() {
	n := s.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("livegraph: snapshot over-released")
	}
	s.l.pinMu.Lock()
	if s.l.pinned[s.epoch]--; s.l.pinned[s.epoch] <= 0 {
		delete(s.l.pinned, s.epoch)
	}
	s.l.pinMu.Unlock()
	s.l.active.Add(-1)
	if s.pl != nil {
		s.l.planes.retire(s.pl)
	}
	if s.l.cfg.OnReclaim != nil {
		s.l.cfg.OnReclaim(s.epoch)
	}
}

// Live is a mutable graph served through immutable snapshots. All methods
// are safe for concurrent use.
type Live struct {
	name    string
	mutable bool
	cfg     Config

	// wmu serializes what produces a snapshot (ApplyBatch, replay,
	// CompactNow) and Close, across the whole apply; mu is held only to read
	// cur/epoch or swap them, so Acquire never waits out a splice. Fields
	// marked (w) are written under wmu+mu and read under either.
	wmu    sync.Mutex
	mu     sync.Mutex
	cur    *Snapshot // (w) holds one owner reference; nil after Close
	epoch  uint64    // (w)
	closed bool      // (w)

	planes    planes
	patches   []graph.WeightPatch // writer's scratch: one batch's resolved weights
	holdApply func()              // tests: runs in advance between materialize and swap

	active atomic.Int64 // live snapshot handles (unreclaimed)

	// pinned counts unreclaimed snapshot handles per epoch. An epoch is
	// pinned from the moment its snapshot is created until the last
	// reference goes — there is no window in which a handle exists but the
	// epoch reads unpinned, which is what lets the query layer's cache
	// sweep trust EpochPinned against in-flight readers.
	pinMu  sync.Mutex
	pinned map[uint64]int

	done chan struct{}
	wg   sync.WaitGroup

	// Durability (nil/zero on non-durable Lives). store is written once
	// by Recover before the Live is shared, then read-only.
	store         *wal.Store
	lastPos       wal.Pos // (w) position after the last appended/replayed record
	opsSinceCkpt  int     // ops applied since the last checkpoint (under mu)
	lastCkptEpoch uint64  // epoch of the newest persisted checkpoint (under mu)
	ckptOnce      sync.Once
	ckptKick      chan struct{}
	replayed      int64 // batches replayed from the WAL at boot
	ckptFailures  atomic.Int64
	lastCkptErr   atomic.Value // string

	compactAttempts atomic.Int64
	compactions     atomic.Int64
	compactFailures atomic.Int64
	lastCompactErr  atomic.Value // string

	mBatches *obs.Counter
	mOps     map[OpKind]*obs.Counter
}

// New wraps g as a live graph named name. Symmetrized graphs are served
// read-only (ApplyBatch returns ErrImmutable): a single-direction edit
// would silently break the symmetry invariant kcore/setcover rely on.
func New(name string, g *graph.Graph, cfg Config) *Live {
	return newLive(name, g, 0, cfg)
}

// newLive is New starting from an arbitrary epoch — the recovery path
// resumes at the checkpoint's epoch rather than 0.
func newLive(name string, g *graph.Graph, epoch uint64, cfg Config) *Live {
	cfg.fill()
	l := &Live{
		name:     name,
		mutable:  !g.Symmetric(),
		cfg:      cfg,
		done:     make(chan struct{}),
		ckptKick: make(chan struct{}, 1),
		pinned:   make(map[uint64]int),
		epoch:    epoch,
	}
	l.cur = l.newSnapshot(epoch, g, nil) // g is the caller's: no plane
	// Status reads these counters back, so an unobserved Live gets a
	// registry of its own.
	r := cfg.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	lbl := obs.L("graph", name)
	r.GaugeFunc("livegraph_epoch", "Current graph epoch (advances on every mutation batch).",
		func() float64 { return float64(l.Epoch()) }, lbl)
	r.GaugeFunc("livegraph_snapshots_active", "Snapshot handles not yet reclaimed.",
		func() float64 { return float64(l.active.Load()) }, lbl)
	l.mBatches = r.Counter("livegraph_batches_total", "Mutation batches applied.", lbl)
	l.mOps = make(map[OpKind]*obs.Counter, 3)
	for _, k := range []OpKind{OpAdd, OpRemove, OpReweight} {
		l.mOps[k] = r.Counter("livegraph_ops_total", "Mutation ops applied by kind.", lbl, obs.L("op", k.String()))
	}
	l.planes.init(g.NumEdges(),
		r.Counter("livegraph_planes_recycled_total", "Weight-only batches written into a retired weight plane.", lbl),
		r.Counter("livegraph_plane_copies_total", "Weight-only batches that had to copy the weight plane.", lbl),
		r.Counter("livegraph_catchup_patches_total", "Logged weight patches replayed into recycled planes.", lbl))
	return l
}

// Name returns the graph's serving name.
func (l *Live) Name() string { return l.name }

// Mutable reports whether ApplyBatch can succeed.
func (l *Live) Mutable() bool { return l.mutable }

// Epoch returns the current epoch.
func (l *Live) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

func (l *Live) newSnapshot(epoch uint64, g *graph.Graph, pl *plane) *Snapshot {
	s := &Snapshot{l: l, epoch: epoch, g: g, pl: pl}
	s.refs.Store(1) // the owner reference held by l.cur
	l.active.Add(1)
	l.pinMu.Lock()
	l.pinned[epoch]++ // CompactNow can mint a second snapshot at the same epoch
	l.pinMu.Unlock()
	return s
}

// EpochPinned reports whether any snapshot handle for epoch is still
// unreclaimed. True from snapshot creation through the last Release — a
// reader that Acquired the epoch is always covered, even before it gets a
// chance to register interest anywhere else.
func (l *Live) EpochPinned(epoch uint64) bool {
	l.pinMu.Lock()
	defer l.pinMu.Unlock()
	return l.pinned[epoch] > 0
}

// Acquire pins the current snapshot and returns it, or nil after Close.
// The caller must Release it exactly once.
func (l *Live) Acquire() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.cur == nil {
		return nil
	}
	l.cur.refs.Add(1)
	return l.cur
}

// BatchResult reports what ApplyBatch did.
type BatchResult struct {
	// Epoch is the new epoch the batch produced.
	Epoch uint64
	// Applied is the number of ops in the batch.
	Applied int
	// DurableWait is how long the batch waited for its WAL fsync (zero on
	// non-durable Lives and in interval/none sync modes).
	DurableWait time.Duration
}

// ApplyBatch validates and applies one mutation batch atomically: either
// every op lands and the epoch advances by one, or nothing changes. On a
// durable Live the batch is written to the WAL before the epoch commits
// and ApplyBatch does not return success until the record is durable
// under the configured sync mode — an acked batch survives kill -9.
// Queries running against previously acquired snapshots are unaffected,
// and Acquire does not wait for a batch in progress.
func (l *Live) ApplyBatch(ops []Op) (BatchResult, error) {
	if len(ops) == 0 {
		return BatchResult{}, fmt.Errorf("%w: empty batch", ErrValidation)
	}
	if !l.mutable {
		return BatchResult{}, ErrImmutable
	}
	if len(ops) > l.cfg.MaxBatchOps {
		return BatchResult{}, fmt.Errorf("%w (%d > %d)", ErrBatchTooLarge, len(ops), l.cfg.MaxBatchOps)
	}
	epoch, pos, ckpt, err := l.advance(ops, 0)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{Epoch: epoch, Applied: len(ops)}
	if ckpt {
		l.kickCkpt()
	}
	// The group-commit wait runs outside every lock so concurrent batches
	// share one fsync. On failure the batch is already visible in memory but
	// NOT acked — the caller must treat the mutation as lost (it may or may
	// not survive a restart) and the poisoned store refuses all further
	// mutations, so the un-acked state can never diverge further.
	if l.store != nil {
		start := time.Now()
		if err := l.store.WaitDurable(pos); err != nil {
			return BatchResult{}, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		res.DurableWait = time.Since(start)
	}
	return res, nil
}

// advance is the one commit path: resolve ops against the current
// snapshot, materialize the next graph, append the WAL record, swap.
// replay is 0 for a live batch; recovery passes the record's epoch, which
// must be exactly the next one, and skips the append. ckpt reports that the
// ops since the last checkpoint crossed CheckpointOps.
func (l *Live) advance(ops []Op, replay uint64) (epoch uint64, pos wal.Pos, ckpt bool, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed {
		return 0, pos, false, ErrClosed
	}
	old, epoch := l.cur, l.epoch+1
	if replay != 0 && replay != epoch {
		return 0, pos, false, fmt.Errorf("%w: replay epoch %d after state epoch %d", wal.ErrCorrupt, replay, l.epoch)
	}
	delta, err := buildDelta(old.g, ops)
	if err != nil {
		return 0, pos, false, err
	}
	ng, pl, err := l.materialize(old, delta)
	if err != nil {
		// buildDelta pre-validated every op; reaching here is a bug, but
		// the failure mode is still "reject the batch, keep serving".
		return 0, pos, false, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if l.holdApply != nil {
		l.holdApply()
	}
	// WAL-before-commit: the record must be in the log before any reader can
	// observe its epoch. An append failure rejects the batch with no state
	// change (a recycled plane it was written into is never retired again).
	if replay == 0 && l.store != nil {
		if pos, err = l.store.Append(epoch, EncodeOps(ops)); err != nil {
			return 0, pos, false, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	next := l.newSnapshot(epoch, ng, pl)
	l.mu.Lock()
	l.epoch, l.cur = epoch, next
	if replay == 0 && l.store != nil {
		l.lastPos = pos
		l.opsSinceCkpt += len(ops)
		ckpt = l.opsSinceCkpt >= l.cfg.CheckpointOps
	}
	l.mu.Unlock()
	l.planes.commit(pl, l.patches)
	old.Release() // drop the owner reference; readers may still hold it

	l.mBatches.Inc()
	for _, op := range ops {
		l.mOps[op.Kind].Inc()
	}
	return epoch, pos, ckpt, nil
}

// materialize builds the graph for old ⊕ delta and names the plane its
// weights live in (nil when this Live may never write them again). A
// weight-only delta shares old's topology and lands in an owned plane,
// leaving its resolved patches in l.patches; a topology delta's fresh
// weight pair is the first plane of a new generation; a delta that nets to
// nothing shares old's graph, which ends that plane's recycling for good.
func (l *Live) materialize(old *Snapshot, delta graph.Delta) (*graph.Graph, *plane, error) {
	switch {
	case delta.Empty():
		old.pl = nil // safe: old's last Release cannot precede the owner's
		return old.g, nil, nil
	case delta.WeightOnly():
		ps, err := graph.ResolveWeights(old.g, delta.SetW, l.patches[:0])
		if err != nil {
			return nil, nil, err
		}
		l.patches = ps
		pl := l.planes.writable(old.g)
		graph.ApplyWeightPatches(pl.wts, pl.inWts, ps)
		return old.g.WithWeights(pl.wts, pl.inWts, ps), pl, nil
	}
	ng, err := graph.ApplyDelta(old.g, delta)
	if err != nil {
		return nil, nil, err
	}
	return ng, l.planes.adopt(ng), nil
}

// buildDelta resolves a sequential op list into one graph.Delta against
// base, validating every op. Within a batch, later ops see earlier ops'
// effects (add→reweight merges, add→remove cancels, remove→add replaces).
func buildDelta(base *graph.Graph, ops []Op) (graph.Delta, error) {
	type state struct {
		origExists bool
		nowExists  bool
		w          graph.Weight
		touched    bool // weight or existence differs from base
	}
	n := graph.VertexID(base.NumVertices())
	weighted := base.Weighted()
	states := make(map[uint64]*state, len(ops))
	get := func(src, dst graph.VertexID) *state {
		k := uint64(src)<<32 | uint64(dst)
		st, ok := states[k]
		if !ok {
			st = &state{origExists: base.HasEdge(src, dst)}
			st.nowExists = st.origExists
			states[k] = st
		}
		return st
	}
	for i, op := range ops {
		if op.Src >= n || op.Dst >= n {
			return graph.Delta{}, fmt.Errorf("%w: op %d: vertex out of range (%d->%d, graph has %d vertices)",
				ErrValidation, i, op.Src, op.Dst, n)
		}
		switch op.Kind {
		case OpAdd:
			if weighted && op.W < 0 {
				return graph.Delta{}, fmt.Errorf("%w: op %d: negative weight %d", ErrValidation, i, op.W)
			}
			st := get(op.Src, op.Dst)
			if st.nowExists {
				return graph.Delta{}, fmt.Errorf("%w: op %d: add %d->%d: edge already exists",
					ErrValidation, i, op.Src, op.Dst)
			}
			st.nowExists, st.w, st.touched = true, op.W, true
		case OpRemove:
			st := get(op.Src, op.Dst)
			if !st.nowExists {
				return graph.Delta{}, fmt.Errorf("%w: op %d: remove %d->%d: edge does not exist",
					ErrValidation, i, op.Src, op.Dst)
			}
			st.nowExists, st.touched = false, true
		case OpReweight:
			if !weighted {
				return graph.Delta{}, fmt.Errorf("%w: op %d: reweight on an unweighted graph", ErrValidation, i)
			}
			if op.W < 0 {
				return graph.Delta{}, fmt.Errorf("%w: op %d: negative weight %d", ErrValidation, i, op.W)
			}
			st := get(op.Src, op.Dst)
			if !st.nowExists {
				return graph.Delta{}, fmt.Errorf("%w: op %d: reweight %d->%d: edge does not exist",
					ErrValidation, i, op.Src, op.Dst)
			}
			st.w, st.touched = op.W, true
		default:
			return graph.Delta{}, fmt.Errorf("%w: op %d: unknown kind %d", ErrValidation, i, op.Kind)
		}
	}
	var d graph.Delta
	for k, st := range states {
		if !st.touched {
			continue
		}
		src, dst := graph.VertexID(k>>32), graph.VertexID(k&0xffffffff)
		switch {
		case st.origExists && !st.nowExists:
			d.Del = append(d.Del, graph.Edge{Src: src, Dst: dst})
		case !st.origExists && st.nowExists:
			d.Add = append(d.Add, graph.Edge{Src: src, Dst: dst, W: st.w})
		case st.origExists && st.nowExists:
			// remove→add replace or plain reweight; both reduce to a
			// weight rewrite on weighted graphs and a no-op otherwise.
			if weighted {
				d.SetW = append(d.SetW, graph.Edge{Src: src, Dst: dst, W: st.w})
			}
		}
	}
	return d, nil
}

// DurabilityStatus is the per-graph durability section of /statusz.
type DurabilityStatus struct {
	wal.Stats
	CheckpointEpoch    uint64 `json:"checkpoint_epoch"`
	CheckpointFailures int64  `json:"checkpoint_failures"`
	LastCkptError      string `json:"last_checkpoint_error,omitempty"`
	ReplayedBatches    int64  `json:"replayed_batches"`
}

// Status is a point-in-time summary for /statusz. OverlayOps is always
// zero and Compactions counts explicit CompactNow calls only (see
// Config.CompactThreshold for why they are still here).
type Status struct {
	Name               string            `json:"name"`
	Mutable            bool              `json:"mutable"`
	Epoch              uint64            `json:"epoch"`
	OverlayOps         int               `json:"overlay_ops"`
	ActiveSnapshots    int64             `json:"active_snapshots"`
	Batches            int64             `json:"batches"`
	OpsApplied         int64             `json:"ops_applied"`
	PlanesRecycled     int64             `json:"planes_recycled"`
	PlaneCopies        int64             `json:"plane_copies"`
	CatchupPatches     int64             `json:"catchup_patches"`
	Compactions        int64             `json:"compactions"`
	CompactionFailures int64             `json:"compaction_failures"`
	LastCompactError   string            `json:"last_compact_error,omitempty"`
	Durability         *DurabilityStatus `json:"durability,omitempty"`
}

// Status returns a snapshot of the live graph's counters.
func (l *Live) Status() Status {
	l.mu.Lock()
	epoch, ckptEpoch := l.epoch, l.lastCkptEpoch
	l.mu.Unlock()
	lastErr, _ := l.lastCompactErr.Load().(string)
	st := Status{
		Name:               l.name,
		Mutable:            l.mutable,
		Epoch:              epoch,
		ActiveSnapshots:    l.active.Load(),
		Batches:            l.mBatches.Value(),
		OpsApplied:         l.mOps[OpAdd].Value() + l.mOps[OpRemove].Value() + l.mOps[OpReweight].Value(),
		PlanesRecycled:     l.planes.recycled.Value(),
		PlaneCopies:        l.planes.copies.Value(),
		CatchupPatches:     l.planes.catchup.Value(),
		Compactions:        l.compactions.Load(),
		CompactionFailures: l.compactFailures.Load(),
		LastCompactError:   lastErr,
	}
	if l.store != nil {
		ckptErr, _ := l.lastCkptErr.Load().(string)
		st.Durability = &DurabilityStatus{
			Stats:              l.store.Stats(),
			CheckpointEpoch:    ckptEpoch,
			CheckpointFailures: l.ckptFailures.Load(),
			LastCkptError:      ckptErr,
			ReplayedBatches:    l.replayed,
		}
	}
	return st
}

// Close waits out a batch in progress, stops the checkpointer, drops the
// owner reference on the current snapshot, and (on durable Lives) flushes
// and closes the WAL store. In-flight queries holding acquired snapshots
// keep them until they Release; Acquire returns nil afterwards. Close is
// idempotent.
func (l *Live) Close() {
	l.wmu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wmu.Unlock()
		return
	}
	l.closed = true
	cur := l.cur
	l.cur = nil
	close(l.done)
	l.mu.Unlock()
	l.wmu.Unlock()
	cur.Release()
	l.wg.Wait()
	if l.store != nil {
		_ = l.store.Close() // sticky errors were already surfaced to callers
	}
}
