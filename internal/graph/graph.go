// Package graph provides the compressed sparse row (CSR) graph
// representation shared by every algorithm in this repository, together
// with builders, contraction (community merging), and text/binary I/O.
//
// Graphs are stored as symmetric directed adjacency: an undirected edge
// {u, v} appears as the two arcs (u, v) and (v, u), each carrying the full
// edge weight. This matches the convention of the sequential Infomap
// implementation the paper builds on, where an undirected graph is
// transformed into a directed one during preprocessing (Section 3.3).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable CSR graph. Vertices are dense integers in
// [0, NumVertices). Construct one with a Builder or the convenience
// constructors; the zero value is an empty graph.
type Graph struct {
	offsets []int     // len = n+1; adjacency of u is targets[offsets[u]:offsets[u+1]]
	targets []int     // arc heads, sorted within each adjacency list
	weights []float64 // arc weights, parallel to targets; nil means all 1

	numEdges    int     // undirected edge count (self-loops count once)
	totalWeight float64 // sum of undirected edge weights (self-loops once)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges (each self-loop counts
// once).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs returns the number of stored directed arcs. For a graph without
// self-loops this is 2*NumEdges().
func (g *Graph) NumArcs() int { return len(g.targets) }

// TotalWeight returns the sum of undirected edge weights. For an
// unweighted graph this equals float64(NumEdges()).
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

// Degree returns the number of arcs incident to u (parallel edges were
// merged at build time, so this is the number of distinct neighbors,
// counting a self-loop once).
func (g *Graph) Degree(u int) int { return g.offsets[u+1] - g.offsets[u] }

// WeightedDegree returns the sum of weights of arcs leaving u. A
// self-loop contributes its weight twice, matching the usual convention
// that a self-loop adds 2w to a vertex strength.
func (g *Graph) WeightedDegree(u int) float64 {
	s := 0.0
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		w := g.arcWeight(i)
		if g.targets[i] == u {
			w *= 2
		}
		s += w
	}
	return s
}

func (g *Graph) arcWeight(i int) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[i]
}

// Neighbors calls fn for every arc (u, v, w) leaving u. Iteration order is
// ascending by neighbor id and deterministic.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		fn(g.targets[i], g.arcWeight(i))
	}
}

// NeighborSlice returns the adjacency list of u as parallel slices.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) NeighborSlice(u int) (targets []int, weights []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	t := g.targets[lo:hi]
	if g.weights == nil {
		return t, nil
	}
	return t, g.weights[lo:hi]
}

// HasEdge reports whether an arc (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	lo, hi := g.offsets[u], g.offsets[u+1]
	adj := g.targets[lo:hi]
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// EdgeWeight returns the weight of arc (u, v), or 0 if absent.
func (g *Graph) EdgeWeight(u, v int) float64 {
	lo, hi := g.offsets[u], g.offsets[u+1]
	adj := g.targets[lo:hi]
	i := sort.SearchInts(adj, v)
	if i < len(adj) && adj[i] == v {
		return g.arcWeight(lo + i)
	}
	return 0
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// Edges calls fn once per undirected edge (u <= v), with its weight.
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	for u := 0; u < g.NumVertices(); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			v := g.targets[i]
			if u <= v {
				fn(u, v, g.arcWeight(i))
			}
		}
	}
}

// Validate checks structural invariants (sorted adjacency, symmetric arcs,
// consistent counts). It is used by tests and the property-based suite.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", g.offsets[0])
	}
	if len(g.offsets) > 0 && g.offsets[n] != len(g.targets) {
		return fmt.Errorf("offsets[n] = %d, want %d", g.offsets[n], len(g.targets))
	}
	if g.weights != nil && len(g.weights) != len(g.targets) {
		return fmt.Errorf("len(weights) = %d, want %d", len(g.weights), len(g.targets))
	}
	var undirected float64
	edges := 0
	for u := 0; u < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("offsets not monotone at %d", u)
		}
		prev := -1
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			v := g.targets[i]
			if v < 0 || v >= n {
				return fmt.Errorf("arc (%d,%d) out of range", u, v)
			}
			if v <= prev {
				return fmt.Errorf("adjacency of %d not strictly sorted", u)
			}
			prev = v
			w := g.arcWeight(i)
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("arc (%d,%d) has invalid weight %v", u, v, w)
			}
			//dinfomap:float-ok invariant check: the mirrored arc stores a bit-identical copy of the weight
			if rw := g.EdgeWeight(v, u); rw != w {
				return fmt.Errorf("asymmetric arc (%d,%d): %v vs %v", u, v, w, rw)
			}
			if u <= v {
				undirected += w
				edges++
			}
		}
	}
	if edges != g.numEdges {
		return fmt.Errorf("numEdges = %d, counted %d", g.numEdges, edges)
	}
	if math.Abs(undirected-g.totalWeight) > 1e-9*(1+math.Abs(undirected)) {
		return fmt.Errorf("totalWeight = %v, counted %v", g.totalWeight, undirected)
	}
	return nil
}

// Builder accumulates undirected edges and produces a Graph. Parallel
// edges are merged by summing their weights in input order, the order
// AddWeightedEdge saw them. Integer weights sum exactly in any order,
// but three or more fractional-weight copies of one edge may differ in
// the last bit from builds that merged in comparison-sort order.
// Builders are not safe for concurrent use.
type Builder struct {
	n     int
	us    []int32 // ids never exceed MaxID
	vs    []int32
	ws    []float64
	unitW bool
}

// NewBuilder returns a Builder for a graph with n vertices. Edges touching
// vertices >= n grow the graph automatically. Parallel edges sum in the
// order they are added (see Builder).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, unitW: true}
}

// AddEdge records the undirected edge {u, v} with weight 1.
func (b *Builder) AddEdge(u, v int) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u, v} with weight w.
// Self-loops (u == v) are allowed. Panics on an id outside [0, MaxID]
// and on a weight that is not positive and finite.
func (b *Builder) AddWeightedEdge(u, v int, w float64) {
	if u < 0 || v < 0 || u > MaxID || v > MaxID {
		panic(fmt.Sprintf("graph: vertex out of [0, %d] in edge (%d,%d)", MaxID, u, v))
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", w, u, v))
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	//dinfomap:float-ok representation probe: only the literal 1 permits the weightless encoding
	if w != 1 {
		b.unitW = false
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
}

// Grow reserves room for m more edges, so a caller that knows about
// how many it adds does not regrow the builder's arrays on the way.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
	b.ws = slices.Grow(b.ws, m)
}

// EnsureVertices grows the builder's vertex count to at least n,
// creating trailing isolated vertices if needed.
func (b *Builder) EnsureVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build produces the immutable Graph. The Builder may be reused afterward,
// but edges already added remain.
//
// Build is a stable counting sort, with no comparisons: every arc
// (u, v) is bucketed by its head v in input order, then the heads are
// visited in ascending order and each arc is appended to its tail's
// row. Rows come out sorted with parallel arcs adjacent in input order,
// and a last pass merges those.
func (b *Builder) Build() *Graph {
	if len(b.us) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges do not fit int32 edge indices", len(b.us)))
	}
	n := b.n
	// Count arcs per vertex: every edge contributes one arc at each
	// endpoint; a self-loop contributes a single arc. Arcs are
	// symmetric, so a vertex heads as many arcs as it tails.
	offsets := make([]int, n+1)
	for i := range b.us {
		offsets[b.us[i]+1]++
		if b.us[i] != b.vs[i] {
			offsets[b.vs[i]+1]++
		}
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	// byHead holds each arc's tail when every weight is 1, and
	// otherwise the index of its edge: the tail is then the edge's
	// other endpoint us[i] + vs[i] - head (the head for a self-loop).
	cursor := make([]int, n)
	copy(cursor, offsets[:n])
	byHead := make([]int32, offsets[n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		x, y := u, v
		if !b.unitW {
			x, y = int32(i), int32(i)
		}
		byHead[cursor[v]] = x
		cursor[v]++
		if u != v {
			byHead[cursor[u]] = y
			cursor[u]++
		}
	}
	targets := make([]int, offsets[n])
	weights := make([]float64, offsets[n])
	copy(cursor, offsets[:n])
	for h := 0; h < n; h++ {
		for _, x := range byHead[offsets[h]:offsets[h+1]] {
			u := int(x)
			if !b.unitW {
				u = int(b.us[x]) + int(b.vs[x]) - h
				weights[cursor[u]] = b.ws[x]
			}
			targets[cursor[u]] = h
			cursor[u]++
		}
	}
	// Merge parallel arcs, summing their weights in input order.
	out, lo := 0, 0
	for u := 0; u < n; u++ {
		start, hi := out, offsets[u+1]
		for i := lo; i < hi; i++ {
			w := 1.0
			if !b.unitW {
				w = weights[i]
			}
			if out > start && targets[out-1] == targets[i] {
				weights[out-1] += w
				continue
			}
			targets[out], weights[out] = targets[i], w
			out++
		}
		offsets[u], lo = start, hi
	}
	offsets[n] = out
	targets = targets[:out:out]
	weights = weights[:out:out]

	g := &Graph{offsets: offsets, targets: targets, weights: weights}
	if b.unitW && allUnit(weights) {
		g.weights = nil // common unweighted case: drop the weight array
	}
	g.countEdges()
	return g
}

// countEdges sets the derived counters numEdges and totalWeight. The
// total is summed per vertex first (its arcs (u, v) with u <= v, in
// adjacency order), then over vertices in id order: the order in which
// ranks that each hold some vertices' rows reproduce it bit for bit
// from per-vertex partials (see UpperWeight).
func (g *Graph) countEdges() {
	g.numEdges, g.totalWeight = 0, 0
	for u := 0; u < g.NumVertices(); u++ {
		s := 0.0
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if g.targets[i] >= u {
				g.numEdges++
				s += g.arcWeight(i)
			}
		}
		g.totalWeight += s
	}
}

func allUnit(ws []float64) bool {
	for _, w := range ws {
		//dinfomap:float-ok representation probe: only the literal 1 permits the weightless encoding
		if w != 1 {
			return false
		}
	}
	return true
}

// FromEdges builds a graph with n vertices from an unweighted edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
