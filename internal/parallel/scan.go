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

// PackIndicesInto appends to dst[:0] the indices i in [0, n) that pass keep,
// in ascending order, and returns the result. It is the Ligra/Julienne
// "pack" that builds a sparse frontier from dense flags (a flag array, a
// prefix sum, a scatter), over an implicit iota — no O(n) index slice is
// materialized. dst is reused when its capacity suffices and sc backs the
// parallel branch's flag/sum buffers, so a caller that retains both
// allocates nothing in steady state. Serial below the scan cutoff (or with
// one worker), where a plain append loop beats the flag+scan+scatter pack.
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
