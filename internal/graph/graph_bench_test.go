package graph_test

import (
	"io"
	"math/rand"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
)

// benchGraph is the uk-2007 stand-in at scale 0.3: about 340k edges,
// with the integer weights of the generator's merged parallel edges.
func benchGraph(b *testing.B) *graph.Graph {
	g, _, err := gen.Load("uk-2007", 0.3, 0)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBuild builds benchGraph from its edges in an order shuffled
// with seed 1: "unit" adds an edge of weight w as w unit edges, as the
// generator does, and "weighted" adds it once with weight w, as
// ReadEdgeList does with a written graph.
func BenchmarkBuild(b *testing.B) {
	g := benchGraph(b)
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	g.Edges(func(u, v int, w float64) { edges = append(edges, edge{u, v, w}) })
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	unit, weighted := graph.NewBuilder(g.NumVertices()), graph.NewBuilder(g.NumVertices())
	for _, e := range edges {
		for k := 0; k < int(e.w); k++ {
			unit.AddEdge(e.u, e.v)
		}
		weighted.AddWeightedEdge(e.u, e.v, e.w)
	}
	for _, c := range []struct {
		name string
		b    *graph.Builder
	}{{"unit", unit}, {"weighted", weighted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.b.Build()
			}
		})
	}
}

func BenchmarkRelabelByDegree(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.RelabelByDegree(g)
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.WriteEdgeList(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}
