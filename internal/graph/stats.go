package graph

import (
	"fmt"
	"math"
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
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	perm := make([]int, n)
	for newID, oldID := range order {
		perm[oldID] = newID
	}
	b := NewBuilder(n)
	g.Edges(func(u, v int, w float64) {
		b.AddWeightedEdge(perm[u], perm[v], w)
	})
	return b.Build(), perm
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

// PowerLawExponentMLE estimates the exponent of a power-law degree
// distribution via the discrete maximum-likelihood estimator
// alpha = 1 + n / sum(ln(d_i / (dmin - 0.5))), over vertices with degree
// >= dmin. Returns NaN when fewer than two vertices qualify.
func PowerLawExponentMLE(g *Graph, dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	n := 0
	sum := 0.0
	for u := 0; u < g.NumVertices(); u++ {
		d := g.Degree(u)
		if d >= dmin {
			n++
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
		}
	}
	//dinfomap:float-ok degenerate guard: every addend of sum is > 0 (d >= dmin > dmin-0.5), so 0 iff empty
	if n < 2 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}
