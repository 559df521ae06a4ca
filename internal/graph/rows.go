package graph

import "sort"

// Rows is the adjacency of the vertices one rank owns under round-robin
// ownership: the vertices u with u mod P == Rank, in ascending order.
// Row i belongs to vertex Rank + i·P and holds its arcs sorted by
// target with parallel arcs merged, exactly as the whole graph's
// adjacency list of that vertex: Targets[Off[i]:Off[i+1]], weights
// parallel.
type Rows struct {
	N, P, Rank int
	Off        []int
	Targets    []int32
	Weights    []float64
}

// OwnedCount returns how many ids in [0, n) have id mod p == rank.
func OwnedCount(n, rank, p int) int {
	if n <= rank {
		return 0
	}
	return (n - rank + p - 1) / p
}

// NumRows returns the number of owned vertices.
func (rs *Rows) NumRows() int { return len(rs.Off) - 1 }

// Vertex returns the id of row i.
func (rs *Rows) Vertex(i int) int { return rs.Rank + i*rs.P }

// Row returns row i's targets and weights. The slices alias rs.
func (rs *Rows) Row(i int) ([]int32, []float64) {
	lo, hi := rs.Off[i], rs.Off[i+1]
	return rs.Targets[lo:hi], rs.Weights[lo:hi]
}

// Rows copies the rows of the vertices rank owns among p ranks out of g.
func (g *Graph) Rows(rank, p int) *Rows {
	n := g.NumVertices()
	k := OwnedCount(n, rank, p)
	rs := &Rows{N: n, P: p, Rank: rank, Off: make([]int, k+1)}
	for i := 0; i < k; i++ {
		rs.Off[i+1] = rs.Off[i] + g.Degree(rank+i*p)
	}
	rs.Targets = make([]int32, rs.Off[k])
	rs.Weights = make([]float64, rs.Off[k])
	for i := 0; i < k; i++ {
		u := rank + i*p
		lo := rs.Off[i]
		for j := g.offsets[u]; j < g.offsets[u+1]; j++ {
			rs.Targets[lo] = int32(g.targets[j])
			rs.Weights[lo] = g.arcWeight(j)
			lo++
		}
	}
	return rs
}

// NewRows builds Rows from unsorted rows: row i holds the arcs of
// vertex rank + i·p in the order Build would have placed them — one arc
// per edge line naming the vertex, in file order. Each row is sorted
// stably in place and its parallel arcs merged in that order, as Build
// merges them, so the result equals the whole graph's Rows(rank, p)
// bit for bit. The slices are taken over; no allocation is made per
// row.
func NewRows(n, rank, p int, off []int, targets []int32, weights []float64) *Rows {
	out := 0
	s := &adjSorter{}
	for i := 0; i+1 < len(off); i++ {
		lo, hi := off[i], off[i+1]
		s.t, s.w = targets[lo:hi], weights[lo:hi]
		sort.Stable(s)
		start := out
		for j := lo; j < hi; j++ {
			if out > start && targets[out-1] == targets[j] {
				weights[out-1] += weights[j]
				continue
			}
			targets[out] = targets[j]
			weights[out] = weights[j]
			out++
		}
		off[i] = start
	}
	off[len(off)-1] = out
	return &Rows{N: n, P: p, Rank: rank, Off: off, Targets: targets[:out:out], Weights: weights[:out:out]}
}

// adjSorter sorts one row's parallel slices (targets, weights) by
// target.
type adjSorter struct {
	t []int32
	w []float64
}

func (s *adjSorter) Len() int           { return len(s.t) }
func (s *adjSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s *adjSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// VertexSums are the per-vertex quantities the global graph statistics
// derive from.
type VertexSums struct {
	// Degree is the number of distinct neighbours, a self-loop counting
	// once; Upper counts the arcs (u, v) with v >= u, so the edge count
	// is their sum over vertices.
	Degree, Upper int
	// Strength is the weighted degree (a self-loop counts twice),
	// summed in adjacency order; Self is the self-loop weight.
	Strength, Self float64
	// UpperWeight sums the weights of the arcs counted by Upper in
	// adjacency order; the graph's total weight is their sum in vertex
	// id order (see countEdges).
	UpperWeight float64
}

// Sums returns row i's VertexSums.
func (rs *Rows) Sums(i int) VertexSums {
	u := rs.Vertex(i)
	t, w := rs.Row(i)
	s := VertexSums{Degree: len(t)}
	for j, v := range t {
		if int(v) == u {
			s.Self += w[j]
			s.Strength += 2 * w[j]
		} else {
			s.Strength += w[j]
		}
		if int(v) >= u {
			s.Upper++
			s.UpperWeight += w[j]
		}
	}
	return s
}
