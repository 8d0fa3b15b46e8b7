package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadFile loads a graph from path, dispatching on extension:
//
//	.el / .txt  — whitespace edge list "src dst", one edge per line
//	.wel        — weighted edge list "src dst weight"
//	.gr         — DIMACS shortest-path format (as RoadUSA is distributed)
//	.bin        — this repository's binary CSR snapshot (see WriteBinary)
//
// Lines starting with '#' or '%' are comments in the text formats.
func LoadFile(path string, opt BuildOptions) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		return ReadBinary(f)
	case strings.HasSuffix(path, ".gr"):
		return ReadDIMACS(f, opt)
	case strings.HasSuffix(path, ".wel"):
		return ReadEdgeList(f, true, opt)
	default:
		return ReadEdgeList(f, false, opt)
	}
}

// ReadEdgeList parses a text edge list. If weighted, each line is
// "src dst weight"; otherwise "src dst" (weight defaults to 1).
func ReadEdgeList(r io.Reader, weighted bool, opt BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		want := 2
		if weighted {
			want = 3
		}
		if len(fields) < want {
			return nil, fmt.Errorf("graph: line %d: want %d fields, got %d", line, want, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", line, err)
		}
		w := Weight(1)
		if weighted {
			wv, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", line, err)
			}
			w = Weight(wv)
		}
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if weighted {
		opt.Weighted = true
	}
	return Build(edges, opt)
}

// ReadDIMACS parses the DIMACS 9th-challenge .gr format: "p sp N M" header
// and "a src dst weight" arcs with 1-based vertex ids.
func ReadDIMACS(r io.Reader, opt BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	n := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("graph: bad DIMACS header %q", text)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, err
			}
			n = nv
		case "a":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: bad DIMACS arc %q", text)
			}
			src, err1 := strconv.ParseUint(fields[1], 10, 32)
			dst, err2 := strconv.ParseUint(fields[2], 10, 32)
			w, err3 := strconv.ParseInt(fields[3], 10, 32)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: bad DIMACS arc %q", text)
			}
			if src == 0 || dst == 0 {
				return nil, fmt.Errorf("graph: DIMACS ids are 1-based, got %q", text)
			}
			edges = append(edges, Edge{Src: VertexID(src - 1), Dst: VertexID(dst - 1), W: Weight(w)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	opt.Weighted = true
	if opt.NumVertices == 0 {
		opt.NumVertices = n
	}
	return Build(edges, opt)
}

const binaryMagic = uint64(0x6772474f31303031) // "grGO1001"

// WriteBinary writes a compact little-endian CSR snapshot of g, including
// in-edges and coordinates when present.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var flags uint64
	if g.Weighted() {
		flags |= 1
	}
	if g.HasInEdges() {
		flags |= 2
	}
	if g.HasCoords() {
		flags |= 4
	}
	if g.symmetric {
		flags |= 8
	}
	hdr := []uint64{binaryMagic, uint64(g.n), uint64(g.m), flags}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	sections := []any{g.Off, g.Neigh}
	if g.Weighted() {
		sections = append(sections, g.Wts)
	}
	if g.HasInEdges() {
		sections = append(sections, g.InOff, g.InNeigh)
		if g.Weighted() {
			sections = append(sections, g.InWts)
		}
	}
	if g.HasCoords() {
		sections = append(sections, g.Coord)
	}
	for _, s := range sections {
		if err := binary.Write(bw, binary.LittleEndian, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryFile writes g's binary snapshot to path with the full
// durability dance a write deserves: flush, fsync, and a checked Close. A
// bare "defer f.Close()" on a write path silently loses the error that
// tells you the kernel never accepted the last buffer — this helper exists
// so callers don't re-create that bug (cmd/closecheck enforces it).
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("graph: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graph: closing %s: %w", path, err)
	}
	return nil
}

// ReadBinary reads a snapshot written by WriteBinary. The header and every
// CSR section are validated — dimension bounds, section sizes against the
// stream length (when r is seekable), offset monotonicity, and neighbor id
// range — so a corrupt or truncated file yields an error rather than a
// panic or an absurd allocation.
func ReadBinary(r io.Reader) (*Graph, error) {
	// With a seekable stream (the normal *os.File case) the byte budget is
	// known up front, so a lying header is rejected before any allocation.
	remaining := int64(-1)
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			end, err := s.Seek(0, io.SeekEnd)
			if err != nil {
				return nil, err
			}
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
			remaining = end - cur
		}
	}
	br := bufio.NewReader(r)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: truncated binary header: %w", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %#x", hdr[0])
	}
	nU, mU, flags := hdr[1], hdr[2], hdr[3]
	if flags&^uint64(15) != 0 {
		return nil, fmt.Errorf("graph: unknown binary flags %#x", flags)
	}
	// Vertex ids are uint32, so a valid snapshot can never exceed 2^32
	// vertices; edges are bounded by the int64 offset range with 4 bytes
	// per stored neighbor.
	const maxVerts = int64(1) << 32
	if nU > uint64(maxVerts) {
		return nil, fmt.Errorf("graph: binary header claims %d vertices (max %d)", nU, maxVerts)
	}
	if mU > uint64(1)<<56 {
		return nil, fmt.Errorf("graph: binary header claims %d edges", mU)
	}
	n, m := int(nU), int(mU)
	if remaining >= 0 {
		need := int64(32) + 8*int64(n+1) + 4*int64(m) // header + Off + Neigh
		if flags&1 != 0 {
			need += 4 * int64(m) // Wts
		}
		if flags&2 != 0 {
			need += 8*int64(n+1) + 4*int64(m) // InOff + InNeigh
			if flags&1 != 0 {
				need += 4 * int64(m) // InWts
			}
		}
		if flags&4 != 0 {
			need += 8 * int64(n) // Coord
		}
		if need != remaining {
			return nil, fmt.Errorf("graph: binary snapshot is %d bytes, header implies %d (truncated or corrupt)", remaining, need)
		}
	}
	g := &Graph{n: n, m: m, symmetric: flags&8 != 0}
	var err error
	if g.Off, err = readSection[int64](br, n+1, "Off"); err != nil {
		return nil, err
	}
	if g.Neigh, err = readSection[VertexID](br, m, "Neigh"); err != nil {
		return nil, err
	}
	if err := validateCSR(g.Off, g.Neigh, n, m, "out"); err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		if g.Wts, err = readSection[Weight](br, m, "Wts"); err != nil {
			return nil, err
		}
		g.maxW = maxWeight(g.Wts)
	}
	if flags&2 != 0 {
		if g.InOff, err = readSection[int64](br, n+1, "InOff"); err != nil {
			return nil, err
		}
		if g.InNeigh, err = readSection[VertexID](br, m, "InNeigh"); err != nil {
			return nil, err
		}
		if err := validateCSR(g.InOff, g.InNeigh, n, m, "in"); err != nil {
			return nil, err
		}
		if flags&1 != 0 {
			if g.InWts, err = readSection[Weight](br, m, "InWts"); err != nil {
				return nil, err
			}
		}
	}
	if flags&4 != 0 {
		if g.Coord, err = readSection[Point](br, n, "Coord"); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// readSection reads count fixed-size values in bounded chunks, so that when
// the stream length is unknown (non-seekable reader) a lying header hits a
// truncation error after at most one chunk instead of forcing an up-front
// allocation sized by the claim.
func readSection[T any](br io.Reader, count int, name string) ([]T, error) {
	const maxChunk = 1 << 16
	first := count
	if first > maxChunk {
		first = maxChunk
	}
	out := make([]T, 0, first)
	for count > 0 {
		c := count
		if c > maxChunk {
			c = maxChunk
		}
		chunk := make([]T, c)
		if err := binary.Read(br, binary.LittleEndian, chunk); err != nil {
			return nil, fmt.Errorf("graph: truncated binary section %s: %w", name, err)
		}
		out = append(out, chunk...)
		count -= c
	}
	return out, nil
}

// validateCSR checks the structural invariants of one CSR half: offsets
// start at 0, never decrease, end exactly at m, and every neighbor id names
// a real vertex.
func validateCSR(off []int64, neigh []VertexID, n, m int, kind string) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: %s-CSR offsets start at %d, want 0", kind, off[0])
	}
	for v := 1; v <= n; v++ {
		if off[v] < off[v-1] {
			return fmt.Errorf("graph: %s-CSR offsets decrease at vertex %d (%d < %d)", kind, v, off[v], off[v-1])
		}
	}
	if off[n] != int64(m) {
		return fmt.Errorf("graph: %s-CSR offsets end at %d, want %d edges", kind, off[n], m)
	}
	for i, d := range neigh {
		if int64(d) >= int64(n) {
			return fmt.Errorf("graph: %s-CSR edge %d targets vertex %d (graph has %d vertices)", kind, i, d, n)
		}
	}
	return nil
}
