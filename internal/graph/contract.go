package graph

import "fmt"

// Contract merges the vertices of g according to the community assignment
// comm (comm[u] is the community of vertex u) and returns the quotient
// graph, in which every community becomes one vertex. Edge weights between
// a pair of communities are accumulated; intra-community weight becomes a
// self-loop on the merged vertex, preserving total weight. This is the
// "merge communities into a new graph" step of Infomap (Algorithm 1,
// lines 27-29 and Section 3.5 of the paper).
//
// Community IDs need not be dense: the second return value maps each
// original community ID to its vertex in the new graph.
func Contract(g *Graph, comm []int) (*Graph, map[int]int) {
	if len(comm) != g.NumVertices() {
		panic(fmt.Sprintf("graph: Contract assignment has %d entries for %d vertices",
			len(comm), g.NumVertices()))
	}
	remap := make(map[int]int)
	for _, c := range comm {
		if _, ok := remap[c]; !ok {
			remap[c] = len(remap)
		}
	}
	b := NewBuilder(len(remap))
	g.Edges(func(u, v int, w float64) {
		cu, cv := remap[comm[u]], remap[comm[v]]
		b.AddWeightedEdge(cu, cv, w)
	})
	return b.Build(), remap
}

// Renumber produces a dense renumbering of the community assignment:
// dense[u] in [0, k) where k is the number of distinct communities,
// assigned in order of first appearance. It also returns k.
func Renumber(comm []int) (dense []int, k int) {
	remap := make(map[int]int, len(comm)/4+1)
	dense = make([]int, len(comm))
	for u, c := range comm {
		id, ok := remap[c]
		if !ok {
			id = len(remap)
			remap[c] = id
		}
		dense[u] = id
	}
	return dense, len(remap)
}
