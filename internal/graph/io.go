package graph

import (
	"bufio"
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
