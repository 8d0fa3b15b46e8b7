package livegraph

import (
	"encoding/binary"
	"fmt"
	"time"

	"graphit/internal/graph"
	"graphit/internal/wal"
)

// Op batch wire format (the payload of one WAL record), little-endian:
//
//	u8   version (opsWireV1)
//	u32  op count
//	per op: u8 kind | u32 src | u32 dst | i32 w
//
// The framing CRC lives in the WAL record layer; this layer only has to
// be unambiguous and exact-length (trailing bytes are corruption).
const (
	opsWireV1     = 1
	opsWireHeader = 5
	opsWirePerOp  = 13
)

// EncodeOps serializes a batch for the WAL.
func EncodeOps(ops []Op) []byte {
	buf := make([]byte, opsWireHeader+opsWirePerOp*len(ops))
	buf[0] = opsWireV1
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ops)))
	off := opsWireHeader
	for _, op := range ops {
		buf[off] = byte(op.Kind)
		binary.LittleEndian.PutUint32(buf[off+1:], uint32(op.Src))
		binary.LittleEndian.PutUint32(buf[off+5:], uint32(op.Dst))
		binary.LittleEndian.PutUint32(buf[off+9:], uint32(op.W))
		off += opsWirePerOp
	}
	return buf
}

// DecodeOps parses an EncodeOps payload. Anything structurally off —
// wrong version, short buffer, trailing bytes — is an error; semantic
// validation happens when the batch is applied.
func DecodeOps(buf []byte) ([]Op, error) {
	if len(buf) < opsWireHeader {
		return nil, fmt.Errorf("livegraph: op batch too short (%d bytes)", len(buf))
	}
	if buf[0] != opsWireV1 {
		return nil, fmt.Errorf("livegraph: unknown op batch version %d", buf[0])
	}
	n := binary.LittleEndian.Uint32(buf[1:5])
	if want := opsWireHeader + opsWirePerOp*int64(n); int64(len(buf)) != want {
		return nil, fmt.Errorf("livegraph: op batch length %d, want %d for %d ops", len(buf), want, n)
	}
	ops := make([]Op, n)
	off := opsWireHeader
	for i := range ops {
		ops[i] = Op{
			Kind: OpKind(buf[off]),
			Src:  graph.VertexID(binary.LittleEndian.Uint32(buf[off+1:])),
			Dst:  graph.VertexID(binary.LittleEndian.Uint32(buf[off+5:])),
			W:    graph.Weight(binary.LittleEndian.Uint32(buf[off+9:])),
		}
		off += opsWirePerOp
	}
	return ops, nil
}

// RecoverInfo summarizes a boot recovery.
type RecoverInfo struct {
	// Epoch is the epoch the Live resumed at (checkpoint + replay).
	Epoch uint64 `json:"epoch"`
	// CheckpointEpoch is the checkpoint the recovery started from (0 and
	// FromCheckpoint=false when the base graph was used).
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	FromCheckpoint  bool   `json:"from_checkpoint"`
	// Replayed is the number of WAL batches re-applied after the
	// checkpoint.
	Replayed int64 `json:"replayed_batches"`
	// Duration is the wall time of the whole recovery.
	Duration time.Duration `json:"duration_ns"`
}

// Recover builds a durable Live over store: load the newest valid
// checkpoint (or start from base), replay every WAL record after it
// through the normal batch-apply path, and take ownership of the store
// for subsequent ApplyBatch appends, checkpoints, and Close. The Live is
// not safe to serve until Recover returns — the caller gates traffic
// (503) on it.
func Recover(name string, base *graph.Graph, store *wal.Store, cfg Config) (*Live, RecoverInfo, error) {
	start := time.Now()
	var info RecoverInfo
	g, epoch, pos, err := store.LoadCheckpoint()
	if err != nil {
		return nil, info, err
	}
	if g == nil {
		g, epoch, pos = base, 0, wal.Pos{}
	} else {
		info.FromCheckpoint = true
		info.CheckpointEpoch = epoch
	}
	l := newLive(name, g, epoch, cfg)
	if !l.mutable {
		l.Close()
		return nil, info, fmt.Errorf("%w: durable stores require a mutable graph", ErrImmutable)
	}
	l.lastCkptEpoch = epoch
	err = store.Replay(pos, func(rec wal.Record) error {
		ops, err := DecodeOps(rec.Payload)
		if err != nil {
			// The record frame checksummed clean but the payload does not
			// parse: corruption below the CRC (or a version skew). Replay
			// must not guess.
			return fmt.Errorf("%w: record for epoch %d: %v", wal.ErrCorrupt, rec.Epoch, err)
		}
		// The same commit path as ApplyBatch, minus the append. Epochs must
		// arrive in exact sequence — a gap, a repeat or an op the state
		// rejects means the log and the checkpoint disagree.
		if _, _, _, err := l.advance(ops, rec.Epoch); err != nil {
			return fmt.Errorf("%w: replaying epoch %d: %v", wal.ErrCorrupt, rec.Epoch, err)
		}
		l.replayed++
		return nil
	})
	if err != nil {
		l.Close()
		return nil, info, err
	}
	l.mu.Lock()
	l.store = store
	l.lastPos = store.Written()
	l.mu.Unlock()
	info.Epoch = l.Epoch()
	info.Replayed = l.replayed
	info.Duration = time.Since(start)
	store.RecordRecovery(info.Epoch, info.Duration)
	return l, info, nil
}

// kickCkpt nudges the checkpointer goroutine, starting it on first use, so
// Lives that never cross CheckpointOps run no background goroutine at all.
func (l *Live) kickCkpt() {
	if l.store == nil {
		return
	}
	l.ckptOnce.Do(func() {
		l.wg.Add(1)
		go l.ckptLoop()
	})
	select {
	case l.ckptKick <- struct{}{}:
	default:
	}
}

func (l *Live) ckptLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.ckptKick:
		}
		// Checkpoint failure is not fatal: the WAL still holds every batch;
		// recovery just replays more. CheckpointNow records it and the next
		// kick retries.
		_ = l.CheckpointNow()
	}
}

// CheckpointNow cuts a checkpoint of the current epoch synchronously.
func (l *Live) CheckpointNow() error {
	if l.store == nil {
		return fmt.Errorf("livegraph: %s has no durable store", l.name)
	}
	err := l.checkpointOnce()
	if err != nil {
		l.ckptFailures.Add(1)
		l.lastCkptErr.Store(err.Error())
	}
	return err
}

// checkpointOnce persists the current (epoch, graph, wal position)
// triple. The triple is captured atomically under l.mu; the expensive
// snapshot write happens outside it against the pinned graph.
func (l *Live) checkpointOnce() error {
	l.mu.Lock()
	if l.closed || l.cur == nil {
		l.mu.Unlock()
		return nil
	}
	if l.epoch == l.lastCkptEpoch {
		l.mu.Unlock()
		return nil // nothing new to persist
	}
	snap := l.cur
	snap.refs.Add(1)
	epoch, pos := l.epoch, l.lastPos
	l.mu.Unlock()
	defer snap.Release()

	if err := l.store.Checkpoint(snap.Graph(), epoch, pos); err != nil {
		return err
	}
	l.mu.Lock()
	if epoch > l.lastCkptEpoch {
		l.lastCkptEpoch = epoch
		l.opsSinceCkpt = 0
	}
	l.mu.Unlock()
	l.lastCkptErr.Store("")
	return nil
}
