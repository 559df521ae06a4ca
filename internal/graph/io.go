package graph

import (
	"io"
	"math"
	"strconv"
)

// ReadEdgeList parses a whitespace-separated edge list (see
// ParseEdgeList for the format) and builds the graph. The vertex count
// is 1 + the maximum ID seen, or the value of a "# vertices=N ..."
// header comment (which WriteEdgeList emits) when that is larger —
// without it, trailing isolated vertices would be lost in the round
// trip. Parallel edges are merged, their weights summed in file order;
// a file with three or more fractional-weight copies of one edge may
// read back differently in the last bit than builds whose rows were
// merged in comparison-sort order.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	info, err := ParseEdgeList(r, b.AddWeightedEdge)
	if err != nil {
		return nil, err
	}
	b.EnsureVertices(info.NumVertices())
	return b.Build(), nil
}

// writeChunk is the size at which WriteEdgeList flushes its buffer.
const writeChunk = 64 << 10

// WriteEdgeList writes g as a text edge list (one "u v" or "u v w" line
// per undirected edge, u <= v, after a "# vertices=N edges=M" header).
// Weights are omitted when all are 1 and are otherwise formatted as
// fmt's %g formats them.
func WriteEdgeList(w io.Writer, g *Graph) error {
	buf := make([]byte, 0, writeChunk+64)
	buf = append(buf, "# vertices="...)
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, " edges="...)
	buf = strconv.AppendInt(buf, int64(g.NumEdges()), 10)
	buf = append(buf, '\n')
	for u := 0; u < g.NumVertices(); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			v := g.targets[i]
			if v < u {
				continue
			}
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			if g.weights != nil {
				buf = append(buf, ' ')
				buf = appendWeight(buf, g.weights[i])
			}
			buf = append(buf, '\n')
			if len(buf) >= writeChunk {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendWeight appends w as fmt's %g formats it. %g writes an integer
// below 1e6 as its plain digits, and the generated graphs' weights are
// all such integers, so those take strconv's fast integer path.
func appendWeight(buf []byte, w float64) []byte {
	//dinfomap:float-ok representation probe: exactly integral weights print as integers
	if w < 1e6 && w == math.Trunc(w) {
		return strconv.AppendInt(buf, int64(w), 10)
	}
	return strconv.AppendFloat(buf, w, 'g', -1, 64)
}
