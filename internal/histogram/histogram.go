// Package histogram implements the per-round update counting used by the
// "lazy with constant sum reduction" schedule (paper §5.1, Figure 10).
//
// For algorithms whose priority updates are a fixed constant (k-core
// decrements a neighbor's degree by exactly 1 per incident edge), the lazy
// engine does not apply each update individually. It instead counts how many
// updates each vertex receives in a round and applies the transformed
// user-defined function once per vertex with that count, avoiding contention
// on high-degree vertices.
//
// The package also provides Buckets, a lock-free fixed-bound histogram with
// Prometheus `le` bucket semantics — the bucketing layer the metrics
// registry (internal/obs) folds latencies and frontier sizes into.
package histogram

// cacheLine is the padding unit that keeps two workers' written state on
// different cache lines.
const cacheLine = 64

// MaxUpdates bounds the updates one round may count. Round bases grow by
// each round's bound and are rebased to 0 before they would pass it.
const MaxUpdates = 1<<30 - 1

// finalized marks a finalized vertex in every plane. It exceeds every round
// base, so a marked entry never reads as a first touch, and counting into
// it stays below 2³¹ because a rebase restores the mark.
const finalized = 1 << 30

// Counter accumulates per-vertex update counts for one round. Each worker
// counts into its own int32 plane with plain adds, so an update is one
// non-atomic increment, and plane w is only ever written by worker w.
//
// Counts are round-tagged rather than zeroed: a round counts above its
// base, so an entry at or below the base is untouched this round, and the
// next round's base is this one's plus the round's update bound. The
// increment that lifts a worker's entry above the base is that worker's
// first touch of the vertex; it lists the vertex for the vertex's owner, a
// fixed hash of the id over the round's counting workers.
//
// A round counted by several workers ends in two steps. Each worker seals
// its plane: it turns its first touches of other owners' vertices into
// (vertex, count) pairs, reading only its own plane. Then each owner
// drains: it adds the pairs listed for it into its own plane, listing the
// vertices it had not touched itself, and reports each of its listed
// vertices once with its total. Owners drain concurrently, and no worker
// reads or writes another's plane.
//
// Memory is workers × 4n bytes for the planes, plus the touched lists.
type Counter struct {
	workers int
	planes  []Plane
	lists   []touchList // lists[w*workers+o]: worker w's first touches owned by o
	next    int32       // the next round's base
}

// Plane is one worker's counting handle.
type Plane struct {
	counts []int32
	lists  []touchList // this worker's row of Counter.lists, indexed by owner
	owners uint64      // the round's owner count
	base   int32
	_      [cacheLine]byte // keeps sibling planes' headers off this line
}

// touchList is one (worker, owner) list, padded to a cache line so that
// appends by different workers never write the same line.
type touchList struct {
	ids   []uint32
	pairs []uint64 // sealed ids: vertex<<32 | count
	_     [16]byte // with two slice headers (48 bytes), one cache line
}

// New returns a counter over vertices [0, n) for workers [0, workers).
func New(n, workers int) *Counter {
	c := &Counter{
		workers: workers,
		planes:  make([]Plane, workers),
		lists:   make([]touchList, workers*workers),
	}
	for w := range c.planes {
		c.planes[w] = Plane{
			counts: make([]int32, n),
			lists:  c.lists[w*workers : (w+1)*workers],
		}
	}
	return c
}

// Len returns the number of vertices the counter covers.
func (c *Counter) Len() int { return len(c.planes[0].counts) }

// Workers returns the number of planes.
func (c *Counter) Workers() int { return c.workers }

// Reset zeroes every count and empties every touched list, so a counter
// left mid-round or holding finalized marks can serve a new run.
func (c *Counter) Reset() {
	for w := range c.planes {
		clear(c.planes[w].counts)
	}
	for i := range c.lists {
		c.lists[i].ids = c.lists[i].ids[:0]
		c.lists[i].pairs = c.lists[i].pairs[:0]
	}
	c.next = 0
}

// Begin starts a round that counts at most updates (≤ MaxUpdates) updates
// on workers [0, counting), with one owner per counting worker. Every
// owner must be drained before the next Begin; a round counted by one
// worker needs no Seal.
func (c *Counter) Begin(updates int64, counting int) {
	if updates > MaxUpdates {
		panic("histogram: a round of more than MaxUpdates updates")
	}
	if int64(c.next)+updates > MaxUpdates {
		// Rebase: every count is stale, so only the marks survive.
		for w := range c.planes {
			for v, e := range c.planes[w].counts {
				if e < finalized {
					c.planes[w].counts[v] = 0
				} else {
					c.planes[w].counts[v] = finalized
				}
			}
		}
		c.next = 0
	}
	for w := range c.planes {
		c.planes[w].base, c.planes[w].owners = c.next, uint64(counting)
	}
	c.next += int32(updates)
}

// Plane returns worker w's counting handle. A plane may be used by one
// goroutine at a time.
func (c *Counter) Plane(w int) *Plane { return &c.planes[w] }

// Add records one update for each id in vs.
func (p *Plane) Add(vs ...uint32) {
	counts, base := p.counts, p.base
	for _, v := range vs {
		e := counts[v]
		if e <= base {
			e = base
			p.touch(v)
		}
		counts[v] = e + 1
	}
}

// touch lists v for its owner. The owner is a multiplicative hash of v's
// 16-id block scaled to [0, owners): hub-skewed id ranges spread over all
// owners, while ids that share a cache line of a plane (16 int32 counts),
// or of an int64 vector a drain writes, share an owner.
func (p *Plane) touch(v uint32) {
	o := uint64((v>>4)*0x9E3779B1) * p.owners >> 32
	l := &p.lists[o]
	l.ids = append(l.ids, v)
}

// Seal ends worker w's counting for the round: its first touches of other
// owners' vertices become (vertex, count) pairs for those owners to drain.
func (c *Counter) Seal(w int) {
	p := &c.planes[w]
	for o := range p.lists {
		if o == w {
			continue
		}
		l := &p.lists[o]
		for _, v := range l.ids {
			l.pairs = append(l.pairs, uint64(v)<<32|uint64(p.counts[v]-p.base))
		}
		l.ids = l.ids[:0]
	}
}

// Finalize marks v finalized in every plane: later updates to v are
// counted into a marked entry and never listed, so v is never drained
// again. Call it between rounds.
func (c *Counter) Finalize(v uint32) {
	for w := range c.planes {
		c.planes[w].counts[v] = finalized
	}
}

// Pending returns the number of listed first touches and sealed pairs
// awaiting Drain. A vertex touched by k workers is listed k times.
func (c *Counter) Pending() int {
	n := 0
	for i := range c.lists {
		n += len(c.lists[i].ids) + len(c.lists[i].pairs)
	}
	return n
}

// Drain invokes fn once for every vertex owner o owns that was touched in
// the current round, with its total count over all workers, and empties
// o's lists. It runs after every counting worker other than o has sealed.
// Drains of different owners may run concurrently, each on the goroutine
// that counted into plane o (or while no plane is in use).
func (c *Counter) Drain(o int, fn func(v uint32, count int64)) {
	p := &c.planes[o]
	counts, base := p.counts, p.base
	own := &p.lists[o]
	for w := range c.planes {
		if w == o {
			continue
		}
		l := &c.lists[w*c.workers+o]
		for _, vc := range l.pairs {
			v := uint32(vc >> 32)
			e := counts[v]
			if e <= base {
				e = base
				own.ids = append(own.ids, v)
			}
			counts[v] = e + int32(uint32(vc))
		}
		l.pairs = l.pairs[:0]
	}
	for _, v := range own.ids {
		fn(v, int64(counts[v]-base))
	}
	own.ids = own.ids[:0]
}
