// Package atomicutil provides the lock-free scalar primitives that the
// paper's generated code relies on: atomic write-min / write-max / add on
// slice elements, and compare-and-swap based deduplication flags.
//
// These correspond to the writeMin / CAS idioms in Julienne's and GAPBS's
// hand-written update functions (paper Figure 2) that the GraphIt compiler
// inserts automatically (paper §5.1).
package atomicutil

import "sync/atomic"

// WriteMin atomically sets *p = min(*p, v) and reports whether v became the
// new value (i.e. the write "won"). This is the atomic relaxation primitive
// of ∆-stepping: dist[d] = min(dist[d], dist[s]+w).
func WriteMin(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// WriteMax atomically sets *p = max(*p, v) and reports whether v won.
func WriteMax(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// AddClamped atomically adds delta to *p with the result clamped at floor,
// and reports the new value and whether it changed. This implements
// updatePrioritySum with a minimum threshold (paper Table 1): e.g. k-core
// decrements a vertex's induced degree but not below the current core k.
func AddClamped(p *int64, delta, floor int64) (int64, bool) {
	for {
		old := atomic.LoadInt64(p)
		next := old + delta
		if next < floor {
			next = floor
		}
		if next == old {
			return old, false
		}
		if atomic.CompareAndSwapInt64(p, old, next) {
			return next, true
		}
	}
}

// Load is an atomic load of a slice element (by pointer).
func Load(p *int64) int64 { return atomic.LoadInt64(p) }

// Store is an atomic store of a slice element (by pointer).
func Store(p *int64, v int64) { atomic.StoreInt64(p, v) }

// Flags is a set of CAS-guarded flags, one word per vertex: TrySet admits
// each vertex once — into a finalized set, or into a per-round output
// buffer (paper Figure 9(a), line 21), reset between rounds with ResetList.
type Flags struct {
	bits []uint32
}

// NewFlags returns a flag set for n items, all clear.
func NewFlags(n int) *Flags {
	return &Flags{bits: make([]uint32, n)}
}

// TrySet atomically sets flag i and reports whether this call was the one
// that set it (false if it was already set).
func (f *Flags) TrySet(i uint32) bool {
	return atomic.CompareAndSwapUint32(&f.bits[i], 0, 1)
}

// IsSet reports whether flag i is set.
func (f *Flags) IsSet(i uint32) bool {
	return atomic.LoadUint32(&f.bits[i]) != 0
}

// ResetList clears exactly the flags named in ids: O(|ids|) instead of O(n),
// the standard trick for per-round dedup on sparse frontiers.
func (f *Flags) ResetList(ids []uint32) {
	for _, v := range ids {
		atomic.StoreUint32(&f.bits[v], 0)
	}
}
