package livegraph

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphit/internal/faults"
	"graphit/internal/graph"
	"graphit/internal/testutil"
	"graphit/internal/wal"
)

// durableBase builds the same small weighted directed base as newTestLive.
func durableBase(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 3},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 0, W: 7},
	}, graph.BuildOptions{NumVertices: 4, Weighted: true, InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openDurable opens (or reopens) a durable Live over dir.
func openDurable(t *testing.T, dir string, wopts wal.Options) (*Live, RecoverInfo) {
	t.Helper()
	store, err := wal.Open(dir, wopts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	l, info, err := Recover("test", durableBase(t), store, Config{})
	if err != nil {
		_ = store.Close()
		t.Fatalf("Recover: %v", err)
	}
	return l, info
}

// fingerprintOf pins the live graph's current snapshot and fingerprints it.
func fingerprintOf(t *testing.T, l *Live) uint64 {
	t.Helper()
	s := l.Acquire()
	if s == nil {
		t.Fatal("Acquire returned nil")
	}
	defer s.Release()
	return graph.Fingerprint(s.Graph())
}

// TestCheckpointOpsCutsCheckpointInBackground: once a durable Live's applied
// ops cross CheckpointOps, its background checkpointer starts and cuts a
// checkpoint of the current epoch, and Close joins that goroutine.
func TestCheckpointOpsCutsCheckpointInBackground(t *testing.T) {
	defer testutil.LeakCheck(t)()
	store, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	l, _, err := Recover("test", durableBase(t), store, Config{CheckpointOps: 2})
	if err != nil {
		_ = store.Close()
		t.Fatalf("Recover: %v", err)
	}
	defer l.Close()
	for _, w := range []graph.Weight{9, 4} {
		if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: w}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := l.Status().Durability
		if d.Ckpts >= 1 && d.CheckpointEpoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after crossing CheckpointOps: %+v", *d)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAckedBatchesSurviveCrashAndReopen is the acceptance drill: every
// batch acked under SyncAlways must be present, bit for bit, after the
// process "crashes" (the store is abandoned without Close — no flush, no
// goodbye) and a fresh Live recovers from the same directory.
func TestAckedBatchesSurviveCrashAndReopen(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	l, info := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	if info.FromCheckpoint || info.Replayed != 0 || info.Epoch != 0 {
		t.Fatalf("fresh dir should recover to epoch 0 from base, got %+v", info)
	}

	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}}); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	res, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 1, Dst: 3, W: 2}, {Kind: OpRemove, Src: 2, Dst: 0}})
	if err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	if res.Epoch != 2 {
		t.Fatalf("epoch after two batches = %d, want 2", res.Epoch)
	}
	frozen := fingerprintOf(t, l)
	// Crash: walk away mid-life. Nothing is closed, nothing flushed beyond
	// what each ack already forced to disk.

	l2, info2 := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l2.Close()
	if info2.Epoch != 2 || info2.Replayed != 2 || info2.FromCheckpoint {
		t.Fatalf("recovery = %+v, want epoch 2 via 2 replayed batches from base", info2)
	}
	if got := fingerprintOf(t, l2); got != frozen {
		t.Fatalf("recovered fingerprint %#x != pre-crash %#x", got, frozen)
	}
	s := l2.Acquire()
	defer s.Release()
	if w, ok := weightOf(s.Graph(), 0, 1); !ok || w != 9 {
		t.Fatalf("edge 0->1 after recovery: w=%d ok=%v, want 9", w, ok)
	}
	if w, ok := weightOf(s.Graph(), 1, 3); !ok || w != 2 {
		t.Fatalf("edge 1->3 after recovery: w=%d ok=%v, want 2", w, ok)
	}
	if _, ok := weightOf(s.Graph(), 2, 0); ok {
		t.Fatal("removed edge 2->0 reappeared after recovery")
	}
}

// TestRecoverUsesCheckpointAndReplaysSuffix: a checkpoint bounds replay —
// only batches after it are re-applied, and the final state matches the
// all-replay state exactly.
func TestRecoverUsesCheckpointAndReplaysSuffix(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	l, _ := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	for i, ops := range [][]Op{
		{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}},
		{{Kind: OpAdd, Src: 3, Dst: 0, W: 4}},
	} {
		if _, err := l.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	if err := l.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 1, Dst: 2, W: 6}}); err != nil {
		t.Fatalf("batch 3: %v", err)
	}
	frozen := fingerprintOf(t, l)

	l2, info := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l2.Close()
	if !info.FromCheckpoint || info.CheckpointEpoch != 2 {
		t.Fatalf("recovery should start from checkpoint epoch 2, got %+v", info)
	}
	if info.Epoch != 3 || info.Replayed != 1 {
		t.Fatalf("recovery = %+v, want epoch 3 with 1 replayed batch", info)
	}
	if got := fingerprintOf(t, l2); got != frozen {
		t.Fatalf("recovered fingerprint %#x != pre-crash %#x", got, frozen)
	}
	if st := l2.Status(); st.Durability == nil || st.Durability.CheckpointEpoch != 2 {
		t.Fatalf("status durability = %+v, want checkpoint epoch 2", st.Durability)
	}
}

// TestFsyncFaultNacksBatchAndPoisonsStore: when the ack-path fsync fails,
// the client gets ErrDurability (503 at the HTTP layer), and the store is
// poisoned — no later batch can sneak past the broken log.
func TestFsyncFaultNacksBatchAndPoisonsStore(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	inj := faults.New(faults.PanicAt(wal.PhaseFsync, 0, "injected EIO"))
	l, _ := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways, FaultHook: inj.Hook()})
	defer l.Close()

	_, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("fsync fault: err = %v, want ErrDurability", err)
	}
	// The store is now fail-stop: the next batch is refused at append.
	_, err = l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 4}})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("post-poison batch: err = %v, want ErrDurability", err)
	}
	if st := l.Status(); st.Durability == nil || !st.Durability.Broken {
		t.Fatalf("status should report the poisoned store, got %+v", st.Durability)
	}
}

// TestCheckpointRenameFaultIsNonFatal: a checkpoint that dies between
// snapshot write and rename leaves a .tmp (swept on next open), records
// the failure in status, and does not disturb serving or recovery — the
// WAL still holds every batch.
func TestCheckpointRenameFaultIsNonFatal(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	inj := faults.New(faults.PanicAt(wal.PhaseCkptRename, 0, "crash before rename"))
	l, _ := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways, FaultHook: inj.Hook()})
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := l.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow should surface the injected rename fault")
	}
	st := l.Status()
	if st.Durability.CheckpointFailures != 1 || st.Durability.LastCkptError == "" {
		t.Fatalf("status after failed checkpoint: %+v", st.Durability)
	}
	frozen := fingerprintOf(t, l)
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("want exactly one orphaned .tmp after the fault, got %v", tmps)
	}

	l2, info := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l2.Close()
	if info.FromCheckpoint {
		t.Fatal("no checkpoint was ever completed; recovery must come from base")
	}
	if got := fingerprintOf(t, l2); got != frozen {
		t.Fatalf("recovered fingerprint %#x != pre-crash %#x", got, frozen)
	}
	if tmps, _ = filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("reopen should sweep orphaned tmp files, found %v", tmps)
	}
}

// TestReplayRejectsEpochGap: a WAL whose records skip an epoch (checkpoint
// and log disagree) must fail recovery loudly, not guess.
func TestReplayRejectsEpochGap(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	store, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store accepts appends only after its (empty) replay.
	if err := store.Replay(wal.Pos{}, func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Hand-append epochs 1 then 3 — a gap no honest run produces.
	for _, e := range []uint64{1, 3} {
		if _, err := store.Append(e, EncodeOps([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.WaitDurable(store.Written()); err != nil {
		t.Fatal(err)
	}

	store2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	_, _, err = Recover("test", durableBase(t), store2, Config{})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("epoch-gap replay: err = %v, want ErrCorrupt", err)
	}
}

// TestRecoverRejectsImmutableBase: durability requires a graph that can
// accept mutations at all.
func TestRecoverRejectsImmutableBase(t *testing.T) {
	defer testutil.LeakCheck(t)()
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1, W: 5}},
		graph.BuildOptions{NumVertices: 2, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, _, err := Recover("sym", g, store, Config{}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Recover on symmetric base: err = %v, want ErrImmutable", err)
	}
}

func TestEncodeDecodeOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAdd, Src: 1, Dst: 3, W: 2},
		{Kind: OpRemove, Src: 2, Dst: 0},
		{Kind: OpReweight, Src: 0, Dst: 1, W: 1<<31 - 1},
	}
	got, err := DecodeOps(EncodeOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip: %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
	if enc := EncodeOps(nil); len(enc) != opsWireHeader {
		t.Fatalf("empty batch encodes to %d bytes, want %d", len(enc), opsWireHeader)
	}

	for name, buf := range map[string][]byte{
		"short":       {1, 0},
		"bad version": append([]byte{2}, EncodeOps(ops)[1:]...),
		"trailing":    append(EncodeOps(ops), 0),
		"truncated":   EncodeOps(ops)[:opsWireHeader+opsWirePerOp-1],
	} {
		if _, err := DecodeOps(buf); err == nil {
			t.Errorf("%s: DecodeOps accepted corrupt payload", name)
		}
	}
}

// TestDurableWaitReported: SyncAlways batches report a positive durable
// wait so the server can observe the fsync stage; crash files exist.
func TestDurableWaitReported(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	l, _ := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l.Close()
	res, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableWait <= 0 {
		t.Fatalf("DurableWait = %v, want > 0 under SyncAlways", res.DurableWait)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment on disk after an acked batch: %v %v", segs, err)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() <= 16 {
		t.Fatalf("segment holds no records: %v %v", fi, err)
	}
}

// TestInvalidBatchIsNotLogged: a batch rejected by validation must not
// reach the WAL — replay after restart must not see it.
func TestInvalidBatchIsNotLogged(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dir := t.TempDir()
	l, _ := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	if _, err := l.ApplyBatch([]Op{{Kind: OpAdd, Src: 99, Dst: 0, W: 1}}); err == nil {
		t.Fatal("out-of-range src should be rejected")
	}
	if _, err := l.ApplyBatch([]Op{{Kind: OpReweight, Src: 0, Dst: 1, W: 9}}); err != nil {
		t.Fatal(err)
	}

	l2, info := openDurable(t, dir, wal.Options{Sync: wal.SyncAlways})
	defer l2.Close()
	if info.Epoch != 1 || info.Replayed != 1 {
		t.Fatalf("recovery = %+v, want exactly the one valid batch", info)
	}
}
