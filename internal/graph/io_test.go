package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
0 1
1 2
% also a comment

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2.5\n1 2 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0, 1); w != 2.5 {
		t.Fatalf("EdgeWeight(0,1) = %v, want 2.5", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"one field":       "0\n",
		"bad source":      "x 1\n",
		"bad target":      "0 y\n",
		"negative vertex": "-1 2\n",
		"bad weight":      "0 1 w\n",
		"zero weight":     "0 1 0\n",
		"negative weight": "0 1 -3\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
				t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("edge list round trip changed the graph")
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		ta, wa := a.NeighborSlice(u)
		tb, wb := b.NeighborSlice(u)
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
			var x, y float64 = 1, 1
			if wa != nil {
				x = wa[i]
			}
			if wb != nil {
				y = wb[i]
			}
			if x != y {
				return false
			}
		}
	}
	return true
}

// Property: text round trips are lossless for random graphs.
func TestPropertyIORoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 50)
		var tb bytes.Buffer
		if WriteEdgeList(&tb, g) != nil {
			return false
		}
		g1, err := ReadEdgeList(&tb)
		return err == nil && graphsEqual(g, g1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListPreservesIsolatedVertices(t *testing.T) {
	// Vertex 4 is isolated; the "# vertices=" header must carry it
	// through the text round trip.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 5 {
		t.Fatalf("round trip lost isolated vertices: n=%d, want 5", g2.NumVertices())
	}
}
