package graph

import (
	"fmt"
	"sort"
)

// DegreeStats summarizes a graph's degree distribution. The paper's
// central premise is that real-world graphs are scale-free: a few hubs
// carry a large fraction of the edges, which breaks 1D partitioning
// (Section 2.3). These statistics let tests and experiments assert that
// generated stand-in datasets actually have that shape.
type DegreeStats struct {
	Min, Max   int
	Mean       float64
	Median     int
	P99        int     // 99th percentile degree
	GiniCoeff  float64 // Gini coefficient of the degree distribution
	HubFrac    float64 // fraction of arcs incident to the top 1% of vertices
	NumIsolate int     // vertices with degree 0
}

// ComputeDegreeStats scans g once and returns its degree statistics.
func ComputeDegreeStats(g *Graph) DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	degs := make([]int, n)
	sum := 0
	for u := 0; u < n; u++ {
		degs[u] = g.Degree(u)
		sum += degs[u]
	}
	sort.Ints(degs)
	st := DegreeStats{
		Min:    degs[0],
		Max:    degs[n-1],
		Mean:   float64(sum) / float64(n),
		Median: degs[n/2],
		P99:    degs[min(n-1, n*99/100)],
	}
	for _, d := range degs {
		if d == 0 {
			st.NumIsolate++
		}
	}
	// Gini coefficient on the sorted degree sequence.
	if sum > 0 {
		var cum float64
		for i, d := range degs {
			cum += float64(d) * float64(2*(i+1)-n-1)
		}
		st.GiniCoeff = cum / (float64(n) * float64(sum))
	}
	// Arc share of the top 1% highest-degree vertices.
	top := n / 100
	if top < 1 {
		top = 1
	}
	hubArcs := 0
	for _, d := range degs[n-top:] {
		hubArcs += d
	}
	if sum > 0 {
		st.HubFrac = float64(hubArcs) / float64(sum)
	}
	return st
}

func (s DegreeStats) String() string {
	return fmt.Sprintf("deg[min=%d med=%d mean=%.1f p99=%d max=%d gini=%.2f hub1%%=%.0f%%]",
		s.Min, s.Median, s.Mean, s.P99, s.Max, s.GiniCoeff, 100*s.HubFrac)
}

// RelabelByDegree renumbers the vertices of g in descending-degree
// order (ties by original id) and returns the new graph together with
// perm, where perm[old] = new id. Real-world graph ids correlate with
// degree — web crawlers reach important pages first, old social
// accounts accumulate friends — and this relabeling reproduces that
// correlation on synthetic graphs, which is what makes contiguous 1D
// partitioning catastrophically imbalanced (paper Figure 6).
func RelabelByDegree(g *Graph) (*Graph, []int) {
	n := g.NumVertices()
	// Counting sort by descending degree; ascending ids keep ties in id
	// order.
	maxDeg := g.MaxDegree()
	first := make([]int, maxDeg+2) // first[maxDeg-d] is degree d's first new id
	for u := 0; u < n; u++ {
		first[maxDeg-g.Degree(u)+1]++
	}
	for d := 1; d < len(first); d++ {
		first[d] += first[d-1]
	}
	perm := make([]int, n)
	order := make([]int, n)
	for u := 0; u < n; u++ {
		k := maxDeg - g.Degree(u)
		perm[u], order[first[k]] = first[k], u
		first[k]++
	}
	// Permute the CSR: new vertex x inherits old vertex order[x]'s
	// degree, and visiting the new ids in ascending order appends each
	// one to its neighbours' rows, which therefore come out sorted.
	h := &Graph{offsets: make([]int, n+1), targets: make([]int, len(g.targets))}
	if g.weights != nil && !allUnit(g.weights) {
		h.weights = make([]float64, len(g.weights))
	}
	for x, u := range order {
		h.offsets[x+1] = h.offsets[x] + g.Degree(u)
	}
	cursor := make([]int, n)
	copy(cursor, h.offsets[:n])
	for x, u := range order {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			y := perm[g.targets[i]]
			h.targets[cursor[y]] = x
			if h.weights != nil {
				h.weights[cursor[y]] = g.weights[i]
			}
			cursor[y]++
		}
	}
	h.countEdges()
	return h, perm
}

// ConnectedComponents labels vertices by connected component (BFS) and
// returns the labels plus the number of components.
func ConnectedComponents(g *Graph) (labels []int, count int) {
	n := g.NumVertices()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			g.Neighbors(u, func(v int, _ float64) {
				if labels[v] < 0 {
					labels[v] = count
					queue = append(queue, v)
				}
			})
		}
		count++
	}
	return labels, count
}
