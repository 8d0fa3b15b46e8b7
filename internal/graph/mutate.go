package graph

import (
	"fmt"
	"sort"
)

// This file holds the CSR-level mutation primitives behind the live-graph
// subsystem (internal/livegraph). A Graph stays immutable: ApplyDelta never
// modifies its receiver — it produces a new Graph that shares every array
// the delta leaves untouched (a weight-only delta shares all topology
// arrays and copies only the weight vectors), so concurrently running
// queries keep reading a frozen view while a new epoch is materialized
// beside them. The pieces ApplyDelta is made of (ResolveWeights,
// ApplyWeightPatches, WithWeights) are exported so livegraph can write a
// weight-only delta into a weight pair it owns instead of a fresh copy.

// Delta is one batch of edge changes, pre-resolved by the caller: the
// per-(src, dst) sets must be disjoint, except that a Del and an Add for
// the same pair together mean "replace". Parallel edges are addressed as a
// group: Del removes every copy of (src, dst) and SetW rewrites every
// copy's weight; Add requires the edge to be entirely absent.
type Delta struct {
	// Add inserts new edges (weights ignored for unweighted graphs).
	Add []Edge
	// Del removes existing edges (the W field is ignored).
	Del []Edge
	// SetW rewrites the weights of existing edges (weighted graphs only).
	SetW []Edge
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.Add) == 0 && len(d.Del) == 0 && len(d.SetW) == 0
}

// WeightOnly reports that the delta leaves the topology untouched.
func (d *Delta) WeightOnly() bool { return len(d.Add) == 0 && len(d.Del) == 0 }

// ApplyDelta materializes g ⊕ d as a new Graph, leaving g untouched. The
// result shares g's unchanged arrays: a weight-only delta copies just Wts
// (and InWts); a topology delta produces six fresh arrays by merging only
// the vertices the delta names — sources in the out-CSR, destinations in
// the in-CSR — and copying the runs between them with shifted offsets (no
// global sort, no per-edge lookup). Coordinates are shared. The delta is
// validated against g — a missing Del/SetW target, a duplicate Add, an
// out-of-range endpoint, or a negative weight is an error and g is returned
// unmodified in spirit (the new graph is never half-built into the old
// one's arrays).
//
// The result's MaxWeight is g's, raised to the heaviest added or rewritten
// weight: a bound that only grows, so a removed or lightened edge never
// lowers it.
//
// Symmetric graphs are rejected: a single-direction edit would silently
// break the symmetry invariant kcore/setcover rely on.
func ApplyDelta(g *Graph, d Delta) (*Graph, error) {
	if g.symmetric {
		return nil, fmt.Errorf("graph: cannot mutate a symmetrized graph")
	}
	if d.Empty() {
		ng := *g
		return &ng, nil
	}
	n := VertexID(g.n)
	for _, e := range d.Add {
		if e.Src >= n || e.Dst >= n {
			return nil, fmt.Errorf("graph: add %d->%d out of range (graph has %d vertices)", e.Src, e.Dst, g.n)
		}
		if g.Weighted() && e.W < 0 {
			return nil, fmt.Errorf("graph: add %d->%d with negative weight %d", e.Src, e.Dst, e.W)
		}
	}
	for _, e := range d.Del {
		if e.Src >= n || e.Dst >= n {
			return nil, fmt.Errorf("graph: remove %d->%d out of range (graph has %d vertices)", e.Src, e.Dst, g.n)
		}
	}
	if len(d.SetW) > 0 && !g.Weighted() {
		return nil, fmt.Errorf("graph: cannot reweight an unweighted graph")
	}
	for _, e := range d.SetW {
		if e.Src >= n || e.Dst >= n {
			return nil, fmt.Errorf("graph: reweight %d->%d out of range (graph has %d vertices)", e.Src, e.Dst, g.n)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("graph: reweight %d->%d to negative weight %d", e.Src, e.Dst, e.W)
		}
	}

	if d.WeightOnly() {
		ps, err := ResolveWeights(g, d.SetW, nil)
		if err != nil {
			return nil, err
		}
		wts := append([]Weight(nil), g.Wts...)
		var inWts []Weight
		if g.InWts != nil {
			inWts = append([]Weight(nil), g.InWts...)
		}
		ApplyWeightPatches(wts, inWts, ps)
		return g.WithWeights(wts, inWts, ps), nil
	}
	return splice(g, d)
}

// WeightPatch is one resolved weight write: the positions of one edge copy
// in Wts and InWts (In is -1 when the graph has no in-CSR). Positions stay
// valid for every graph that shares g's topology arrays.
type WeightPatch struct {
	Out, In int64
	W       Weight
}

// ResolveWeights appends to dst one patch per copy of every setw edge in g.
// A reweight of an absent edge is an error; endpoints must be in range.
func ResolveWeights(g *Graph, setw []Edge, dst []WeightPatch) ([]WeightPatch, error) {
	for _, e := range setw {
		first := len(dst)
		base := g.Off[e.Src]
		for i, d := range g.OutNeigh(e.Src) {
			if d == e.Dst {
				dst = append(dst, WeightPatch{Out: base + int64(i), In: -1, W: e.W})
			}
		}
		if len(dst) == first {
			return nil, fmt.Errorf("graph: reweight %d->%d: edge does not exist", e.Src, e.Dst)
		}
		if g.InWts == nil {
			continue
		}
		// Every copy carries the same new weight, so which in-copy pairs
		// with which out-copy does not matter — only that all are written.
		at, inBase := first, g.InOff[e.Dst]
		for i, s := range g.InNeighbors(e.Dst) {
			if s == e.Src && at < len(dst) {
				dst[at].In = inBase + int64(i)
				at++
			}
		}
		if at != len(dst) {
			return nil, fmt.Errorf("graph: reweight %d->%d: in-CSR holds %d copies, out-CSR %d",
				e.Src, e.Dst, at-first, len(dst)-first)
		}
	}
	return dst, nil
}

// ApplyWeightPatches writes ps into a weight pair (inWts may be nil).
func ApplyWeightPatches(wts, inWts []Weight, ps []WeightPatch) {
	for _, p := range ps {
		wts[p.Out] = p.W
		if p.In >= 0 {
			inWts[p.In] = p.W
		}
	}
}

// WithWeights returns a graph that shares g's topology and reads the given
// weight pair, which must have g's lengths (inWts nil without in-weights):
// g's weights with ps written into them. Its MaxWeight is g's, raised to
// cover ps.
func (g *Graph) WithWeights(wts, inWts []Weight, ps []WeightPatch) *Graph {
	ng := *g
	ng.Wts, ng.InWts = wts, inWts
	for _, p := range ps {
		ng.maxW = max(ng.maxW, p.W)
	}
	return &ng
}

// change is one delta entry seen from one CSR half: key owns the adjacency
// list being merged (the source in the out-CSR, the destination in the
// in-CSR) and nbr is the other endpoint.
type change struct {
	key, nbr VertexID
	w        Weight
}

// halfDelta is a Delta keyed for one CSR half, each list sorted by
// (key, nbr). The sort is stable, so parallel Adds of one pair land in the
// same relative order in both halves.
type halfDelta struct{ add, del, setw []change }

func keyed(d Delta, in bool) halfDelta {
	conv := func(es []Edge) []change {
		cs := make([]change, len(es))
		for i, e := range es {
			cs[i] = change{key: e.Src, nbr: e.Dst, w: e.W}
			if in {
				cs[i].key, cs[i].nbr = e.Dst, e.Src
			}
		}
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].key != cs[j].key {
				return cs[i].key < cs[j].key
			}
			return cs[i].nbr < cs[j].nbr
		})
		return cs
	}
	return halfDelta{add: conv(d.Add), del: conv(d.Del), setw: conv(d.SetW)}
}

// take splits off the leading entries of cs whose key is v.
func take(cs []change, v VertexID) (mine, rest []change) {
	i := 0
	for i < len(cs) && cs[i].key == v {
		i++
	}
	return cs[:i], cs[i:]
}

// find returns the index of the first entry of cs (one vertex's changes,
// sorted by nbr) naming nbr, or -1.
func find(cs []change, nbr VertexID) int {
	i := sort.Search(len(cs), func(i int) bool { return cs[i].nbr >= nbr })
	if i < len(cs) && cs[i].nbr == nbr {
		return i
	}
	return -1
}

// splice materializes a topology delta: each CSR half is merged separately
// from the same delta, so the in-CSR is never re-derived from the out-CSR.
// On a base whose in-lists are in ascending source order (what buildInEdges
// produces) the result is array-identical to buildInEdges of the new
// out-CSR.
func splice(g *Graph, d Delta) (*Graph, error) {
	ng := &Graph{n: g.n, Coord: g.Coord, maxW: g.maxW}
	if g.Weighted() {
		for _, es := range [][]Edge{d.Add, d.SetW} {
			for _, e := range es {
				ng.maxW = max(ng.maxW, e.W)
			}
		}
	}
	var err error
	if ng.Off, ng.Neigh, ng.Wts, err = spliceHalf(g.n, g.Off, g.Neigh, g.Wts, keyed(d, false), false); err != nil {
		return nil, err
	}
	ng.m = len(ng.Neigh)
	if g.HasInEdges() {
		if ng.InOff, ng.InNeigh, ng.InWts, err = spliceHalf(g.n, g.InOff, g.InNeigh, g.InWts, keyed(d, true), true); err != nil {
			return nil, err
		}
		if len(ng.InNeigh) != ng.m {
			return nil, fmt.Errorf("graph: spliced in-CSR holds %d edges, out-CSR %d", len(ng.InNeigh), ng.m)
		}
	}
	return ng, nil
}

// spliceHalf merges h into one CSR half. Vertices h does not name are
// copied run by run with their offsets shifted; a named vertex's list is
// rewritten entry by entry — Dels dropped, SetWs applied, Adds inserted
// before the first surviving neighbor with a larger id, which keeps sorted
// lists sorted (unsorted ones stay valid: CSR correctness does not depend
// on adjacency order).
func spliceHalf(n int, off []int64, neigh []VertexID, wts []Weight, h halfDelta, in bool) ([]int64, []VertexID, []Weight, error) {
	edge := func(c change) (src, dst VertexID) {
		if in {
			return c.nbr, c.key
		}
		return c.key, c.nbr
	}
	nOff := make([]int64, n+1)
	nNeigh := make([]VertexID, 0, len(neigh)+len(h.add))
	var nWts []Weight
	if wts != nil {
		nWts = make([]Weight, 0, len(neigh)+len(h.add))
	}
	emit := func(nbr VertexID, w Weight) {
		nNeigh = append(nNeigh, nbr)
		if wts != nil {
			nWts = append(nWts, w)
		}
	}
	// copyRun carries the untouched vertices [lo, hi) over unchanged.
	copyRun := func(lo, hi int) {
		shift := int64(len(nNeigh)) - off[lo]
		for v := lo; v < hi; v++ {
			nOff[v] = off[v] + shift
		}
		nNeigh = append(nNeigh, neigh[off[lo]:off[hi]]...)
		if wts != nil {
			nWts = append(nWts, wts[off[lo]:off[hi]]...)
		}
	}

	next := 0 // first vertex not yet written
	for len(h.add)+len(h.del)+len(h.setw) > 0 {
		v := VertexID(n)
		for _, cs := range [][]change{h.add, h.del, h.setw} {
			if len(cs) > 0 && cs[0].key < v {
				v = cs[0].key
			}
		}
		copyRun(next, int(v))
		next = int(v) + 1
		nOff[v] = int64(len(nNeigh))
		var add, del, setw []change
		add, h.add = take(h.add, v)
		del, h.del = take(h.del, v)
		setw, h.setw = take(h.setw, v)

		delHit := make([]bool, len(del))
		setHit := make([]bool, len(setw))
		ai := 0
		for i := off[v]; i < off[v+1]; i++ {
			nbr := neigh[i]
			if j := find(del, nbr); j >= 0 {
				delHit[j] = true
				continue
			}
			if j := find(add, nbr); j >= 0 {
				s, d := edge(add[j])
				return nil, nil, nil, fmt.Errorf("graph: add %d->%d: edge already exists", s, d)
			}
			for ; ai < len(add) && add[ai].nbr < nbr; ai++ {
				emit(add[ai].nbr, add[ai].w)
			}
			var w Weight
			if wts != nil {
				w = wts[i]
				if j := find(setw, nbr); j >= 0 {
					w, setHit[j] = setw[j].w, true
				}
			}
			emit(nbr, w)
		}
		for ; ai < len(add); ai++ {
			emit(add[ai].nbr, add[ai].w)
		}
		for j, c := range del {
			if !delHit[j] && find(del, c.nbr) == j {
				s, d := edge(c)
				return nil, nil, nil, fmt.Errorf("graph: remove %d->%d: edge does not exist", s, d)
			}
		}
		for j, c := range setw {
			// A reweight of a replaced edge is carried by its Add.
			if !setHit[j] && find(setw, c.nbr) == j && find(del, c.nbr) < 0 {
				s, d := edge(c)
				return nil, nil, nil, fmt.Errorf("graph: reweight %d->%d: edge does not exist", s, d)
			}
		}
	}
	copyRun(next, n)
	nOff[n] = int64(len(nNeigh))
	return nOff, nNeigh, nWts, nil
}

// Clone deep-copies g: the result shares no memory with the original. The
// torn-read drills freeze a snapshot with it and compare query results
// byte for byte.
func Clone(g *Graph) *Graph {
	ng := *g
	ng.Off = append([]int64(nil), g.Off...)
	ng.Neigh = append([]VertexID(nil), g.Neigh...)
	if g.Wts != nil {
		ng.Wts = append([]Weight(nil), g.Wts...)
	}
	if g.InOff != nil {
		ng.InOff = append([]int64(nil), g.InOff...)
		ng.InNeigh = append([]VertexID(nil), g.InNeigh...)
		if g.InWts != nil {
			ng.InWts = append([]Weight(nil), g.InWts...)
		}
	}
	if g.Coord != nil {
		ng.Coord = append([]Point(nil), g.Coord...)
	}
	return &ng
}

// Validate checks the structural invariants of g: offset monotonicity and
// bounds on both CSR halves, weight/coordinate vector lengths, and in/out
// edge-count agreement. livegraph's CompactNow runs it as the audit before
// and after its rebuild — an incremental splice that ever produced a
// structurally invalid view fails here instead of becoming the new base.
func Validate(g *Graph) error {
	if len(g.Off) != g.n+1 {
		return fmt.Errorf("graph: Off has %d entries for %d vertices", len(g.Off), g.n)
	}
	if len(g.Neigh) != g.m {
		return fmt.Errorf("graph: Neigh has %d entries for %d edges", len(g.Neigh), g.m)
	}
	if err := validateCSR(g.Off, g.Neigh, g.n, g.m, "out"); err != nil {
		return err
	}
	if g.Wts != nil && len(g.Wts) != g.m {
		return fmt.Errorf("graph: Wts has %d entries for %d edges", len(g.Wts), g.m)
	}
	if g.HasInEdges() {
		if len(g.InOff) != g.n+1 {
			return fmt.Errorf("graph: InOff has %d entries for %d vertices", len(g.InOff), g.n)
		}
		if len(g.InNeigh) != g.m {
			return fmt.Errorf("graph: in-CSR holds %d edges, out-CSR %d", len(g.InNeigh), g.m)
		}
		if err := validateCSR(g.InOff, g.InNeigh, g.n, g.m, "in"); err != nil {
			return err
		}
		if g.InWts != nil && len(g.InWts) != g.m {
			return fmt.Errorf("graph: InWts has %d entries for %d edges", len(g.InWts), g.m)
		}
	}
	if g.Coord != nil && len(g.Coord) != g.n {
		return fmt.Errorf("graph: %d coords for %d vertices", len(g.Coord), g.n)
	}
	return nil
}

// HasEdge reports whether at least one (src, dst) edge exists. Callers
// must bounds-check src themselves.
func (g *Graph) HasEdge(src, dst VertexID) bool {
	for _, d := range g.OutNeigh(src) {
		if d == dst {
			return true
		}
	}
	return false
}

// Fingerprint hashes every array of g (FNV-1a). The mutation drills use it
// to prove a pinned snapshot's arrays are never written while queries run.
func Fingerprint(g *Graph) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(g.n))
	mix(uint64(g.m))
	for _, v := range g.Off {
		mix(uint64(v))
	}
	for _, v := range g.Neigh {
		mix(uint64(v))
	}
	for _, v := range g.Wts {
		mix(uint64(uint32(v)))
	}
	for _, v := range g.InOff {
		mix(uint64(v))
	}
	for _, v := range g.InNeigh {
		mix(uint64(v))
	}
	for _, v := range g.InWts {
		mix(uint64(uint32(v)))
	}
	return h
}
