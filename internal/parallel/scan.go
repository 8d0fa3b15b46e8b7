package parallel

// scanSerialCutoff is the input size below which PrefixSum and the pack
// primitives run serially: at these sizes the parallel region's dispatch
// cost exceeds the scan itself.
const scanSerialCutoff = 1 << 14

// PackScratch holds the reusable flag and block-sum buffers behind the
// *Into pack primitives, so steady-state callers (the lazy engine's
// per-round frontier pack) allocate nothing. The zero value is ready to
// use; buffers grow on demand and are retained. A PackScratch must not be
// shared by concurrent pack calls.
type PackScratch struct {
	flags []int64
	sums  []int64
}

// grow returns the flag buffer resized to n (contents unspecified).
func (sc *PackScratch) grow(n int) []int64 {
	if cap(sc.flags) < n {
		sc.flags = make([]int64, n)
	}
	return sc.flags[:n]
}

// growSums returns the block-sum buffer resized to n (contents unspecified).
func (sc *PackScratch) growSums(n int) []int64 {
	if cap(sc.sums) < n {
		sc.sums = make([]int64, n)
	}
	return sc.sums[:n]
}

// PrefixSum replaces xs with its exclusive prefix sum and returns the total.
// For inputs below a size threshold, or with one worker, it runs serially.
// It is the primitive behind the lazy engine's setupFrontier (paper §5.1):
// the synchronized-append buffer is reduced with a prefix sum to avoid
// atomics.
func (e *Executor) PrefixSum(xs []int64) int64 {
	return e.prefixSum(xs, nil)
}

// prefixSum is PrefixSum with an optional scratch for the block sums the
// parallel branch needs; sc == nil allocates them.
func (e *Executor) prefixSum(xs []int64, sc *PackScratch) int64 {
	n := len(xs)
	w := e.w
	if n < scanSerialCutoff || w <= 1 {
		var sum int64
		for i, x := range xs {
			xs[i] = sum
			sum += x
		}
		return sum
	}
	// Two-pass blocked scan: per-block sums, serial scan of block sums,
	// then per-block exclusive scans offset by the block prefix.
	blocks := w * 4
	per := (n + blocks - 1) / blocks
	var sums []int64
	if sc != nil {
		sums = sc.growSums(blocks)
	} else {
		sums = make([]int64, blocks)
	}
	e.ForGrain(blocks, 1, func(b int) {
		lo, hi := b*per, (b+1)*per
		if hi > n {
			hi = n
		}
		var s int64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		sums[b] = s
	})
	var total int64
	for b := range sums {
		s := sums[b]
		sums[b] = total
		total += s
	}
	e.ForGrain(blocks, 1, func(b int) {
		lo, hi := b*per, (b+1)*per
		if hi > n {
			hi = n
		}
		sum := sums[b]
		for i := lo; i < hi; i++ {
			x := xs[i]
			xs[i] = sum
			sum += x
		}
	})
	return total
}

// PrefixSum is the package-level form of Executor.PrefixSum, run on the
// default executor.
func PrefixSum(xs []int64) int64 { return defaultExecutor().PrefixSum(xs) }

// PackU32 returns the elements of xs whose index passes keep, preserving
// order. It parallelizes via a flag array and prefix sum, the standard
// Ligra/Julienne "pack" used to build sparse frontiers from dense flags.
func (e *Executor) PackU32(xs []uint32, keep func(i int) bool) []uint32 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	flags := make([]int64, n)
	e.For(n, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := e.PrefixSum(flags)
	out := make([]uint32, total)
	e.For(n, func(i int) {
		// After the exclusive scan, index i was kept iff its slot differs
		// from the next prefix value.
		var next int64
		if i+1 < n {
			next = flags[i+1]
		} else {
			next = total
		}
		if next != flags[i] {
			out[flags[i]] = xs[i]
		}
	})
	return out
}

// PackU32 is the package-level form of Executor.PackU32, run on the default
// executor.
func PackU32(xs []uint32, keep func(i int) bool) []uint32 {
	return defaultExecutor().PackU32(xs, keep)
}

// PackIndicesInto appends to dst[:0] the indices i in [0, n) that pass keep,
// in ascending order, and returns the result. It is PackU32 over an implicit
// iota — no O(n) index slice is materialized. dst is reused when its capacity
// suffices and sc backs the parallel branch's flag/sum buffers, so a caller
// that retains both allocates nothing in steady state. Serial below the scan
// cutoff (or with one worker), where a plain append loop beats the
// flag+scan+scatter pack.
func (e *Executor) PackIndicesInto(dst []uint32, n int, sc *PackScratch, keep func(i int) bool) []uint32 {
	dst = dst[:0]
	if n == 0 {
		return dst
	}
	if n < scanSerialCutoff || e.w <= 1 {
		for i := 0; i < n; i++ {
			if keep(i) {
				dst = append(dst, uint32(i))
			}
		}
		return dst
	}
	flags := sc.grow(n)
	e.For(n, func(i int) {
		if keep(i) {
			flags[i] = 1
		} else {
			flags[i] = 0
		}
	})
	total := e.prefixSum(flags, sc)
	if cap(dst) < int(total) {
		dst = make([]uint32, total)
	} else {
		dst = dst[:total]
	}
	e.For(n, func(i int) {
		var next int64
		if i+1 < n {
			next = flags[i+1]
		} else {
			next = total
		}
		if next != flags[i] {
			dst[flags[i]] = uint32(i)
		}
	})
	return dst
}

// IotaU32 returns [0, 1, ..., n-1] as uint32, filled in parallel.
func (e *Executor) IotaU32(n int) []uint32 {
	out := make([]uint32, n)
	e.For(n, func(i int) { out[i] = uint32(i) })
	return out
}

// IotaU32 is the package-level form of Executor.IotaU32, run on the default
// executor.
func IotaU32(n int) []uint32 { return defaultExecutor().IotaU32(n) }
