package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// ReadEdgeList parses a whitespace-separated edge list (see
// ParseEdgeList for the format) and builds the graph. The vertex count
// is 1 + the maximum ID seen, or the value of a "# vertices=N ..."
// header comment (which WriteEdgeList emits) when that is larger —
// without it, trailing isolated vertices would be lost in the round
// trip. Parallel edges are merged (weights summed).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	info, err := ParseEdgeList(r, b.AddWeightedEdge)
	if err != nil {
		return nil, err
	}
	b.EnsureVertices(info.NumVertices())
	return b.Build(), nil
}

// WriteEdgeList writes g as a text edge list (one "u v" or "u v w" line
// per undirected edge, u <= v). Weights are omitted when all are 1.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.Edges(func(u, v int, wt float64) {
		if err != nil {
			return
		}
		if g.weights == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

const binMagic = uint64(0x44494d4150_0001) // "DIMAP" + version

// WriteBinary writes g in a compact little-endian binary format
// (magic, n, arc count, offsets, targets, weight flag, weights).
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binMagic, uint64(g.NumVertices()), uint64(len(g.targets))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	off32 := make([]uint64, len(g.offsets))
	for i, o := range g.offsets {
		off32[i] = uint64(o)
	}
	if err := binary.Write(bw, binary.LittleEndian, off32); err != nil {
		return err
	}
	t64 := make([]uint64, len(g.targets))
	for i, t := range g.targets {
		t64[i] = uint64(t)
	}
	if err := binary.Write(bw, binary.LittleEndian, t64); err != nil {
		return err
	}
	weighted := uint64(0)
	if g.weights != nil {
		weighted = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, weighted); err != nil {
		return err
	}
	if g.weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, n, arcs uint64
	for _, p := range []*uint64{&magic, &n, &arcs} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: binary header: %v", err)
		}
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	off := make([]uint64, n+1)
	if err := binary.Read(br, binary.LittleEndian, off); err != nil {
		return nil, fmt.Errorf("graph: offsets: %v", err)
	}
	t64 := make([]uint64, arcs)
	if err := binary.Read(br, binary.LittleEndian, t64); err != nil {
		return nil, fmt.Errorf("graph: targets: %v", err)
	}
	var weighted uint64
	if err := binary.Read(br, binary.LittleEndian, &weighted); err != nil {
		return nil, fmt.Errorf("graph: weight flag: %v", err)
	}
	g := &Graph{
		offsets: make([]int, n+1),
		targets: make([]int, arcs),
	}
	for i, o := range off {
		g.offsets[i] = int(o)
	}
	for i, t := range t64 {
		g.targets[i] = int(t)
	}
	if weighted == 1 {
		g.weights = make([]float64, arcs)
		if err := binary.Read(br, binary.LittleEndian, g.weights); err != nil {
			return nil, fmt.Errorf("graph: weights: %v", err)
		}
	}
	g.countEdges()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %v", err)
	}
	return g, nil
}
