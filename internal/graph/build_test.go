package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// buildSorted is Build before its counting sort: arcs placed per vertex
// in input order, each row sorted by an unstable comparison sort, and
// parallel arcs merged in the sorted order. It is kept as the fuzz
// oracle: on integer weights, whose sums are exact in any order, the
// counting sort must build exactly its graph.
func buildSorted(n int, edges []edgeRec) *Graph {
	deg := make([]int, n+1)
	unit := true
	for _, e := range edges {
		deg[e.u]++
		if e.u != e.v {
			deg[e.v]++
		}
		//dinfomap:float-ok representation probe: only the literal 1 permits the weightless encoding
		unit = unit && e.w == 1
	}
	offsets := make([]int, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + deg[u]
	}
	targets := make([]int, offsets[n])
	weights := make([]float64, offsets[n])
	cursor := slices.Clone(offsets[:n])
	place := func(u, v int, w float64) {
		targets[cursor[u]], weights[cursor[u]] = v, w
		cursor[u]++
	}
	for _, e := range edges {
		place(e.u, e.v, e.w)
		if e.u != e.v {
			place(e.v, e.u, e.w)
		}
	}
	out := 0
	newOffsets := make([]int, n+1)
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		sort.Sort(&intAdjSorter{targets[lo:hi], weights[lo:hi]})
		start := out
		for i := lo; i < hi; i++ {
			if out > start && targets[out-1] == targets[i] {
				weights[out-1] += weights[i]
				continue
			}
			targets[out], weights[out] = targets[i], weights[i]
			out++
		}
		newOffsets[u+1] = out
	}
	g := &Graph{offsets: newOffsets, targets: targets[:out:out], weights: weights[:out:out]}
	if unit && allUnit(g.weights) {
		g.weights = nil
	}
	g.countEdges()
	return g
}

type intAdjSorter struct {
	t []int
	w []float64
}

func (s *intAdjSorter) Len() int           { return len(s.t) }
func (s *intAdjSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s *intAdjSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// identical reports whether a and b are the same graph bit for bit:
// rows, weights (nil or not), counts and total weight.
func identical(a, b *Graph) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.targets, b.targets) &&
		(a.weights == nil) == (b.weights == nil) &&
		slices.EqualFunc(a.weights, b.weights, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) &&
		a.numEdges == b.numEdges && math.Float64bits(a.totalWeight) == math.Float64bits(b.totalWeight)
}

// ingestRows fills rank's unsorted rows among p as rank-local ingest
// does, each vertex's arcs in input order, and builds them with NewRows.
func ingestRows(n, rank, p int, edges []edgeRec) *Rows {
	k := OwnedCount(n, rank, p)
	rowArcs := make([][]edgeRec, k)
	for _, e := range edges {
		if e.u%p == rank {
			rowArcs[e.u/p] = append(rowArcs[e.u/p], e)
		}
		if e.v != e.u && e.v%p == rank {
			rowArcs[e.v/p] = append(rowArcs[e.v/p], edgeRec{e.v, e.u, e.w})
		}
	}
	off := make([]int, k+1)
	var ts []int32
	var ws []float64
	for i, row := range rowArcs {
		for _, e := range row {
			ts = append(ts, int32(e.v))
			ws = append(ws, e.w)
		}
		off[i+1] = len(ts)
	}
	return NewRows(n, rank, p, off, ts, ws)
}

// fuzzEdges decodes an edge list on n vertices from data, four bytes
// an edge: the endpoints, then a weight selector and its operand.
// Selector 0 is an absent weight (AddEdge), 1 an integer weight, and
// any other value a fractional weight.
func fuzzEdges(n int, data []byte) (edges []edgeRec, integral bool) {
	integral = true
	for ; len(data) >= 4; data = data[4:] {
		e := edgeRec{u: int(data[0]) % n, v: int(data[1]) % n, w: 1}
		switch data[2] % 3 {
		case 1:
			e.w = float64(1 + data[3]%5)
		case 2:
			e.w = 0.1 + float64(data[3])/7
			integral = false
		}
		edges = append(edges, e)
	}
	return edges, integral
}

func FuzzBuild(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 0, 1, 2, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(4), []byte{0, 1, 1, 2, 1, 0, 1, 3, 0, 1, 1, 1, 2, 2, 0, 0, 3, 1, 1, 4})
	f.Add(uint8(5), []byte{0, 1, 2, 5, 1, 0, 2, 9, 0, 1, 2, 3, 4, 4, 2, 1, 4, 4, 2, 200, 2, 3, 0, 0})
	f.Add(uint8(2), []byte{1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 3})
	// Three fractional copies of {0, 1} whose sum depends on the order.
	f.Add(uint8(2), []byte{0, 1, 2, 0, 1, 0, 2, 0, 0, 1, 2, 7})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%40 + 1
		edges, integral := fuzzEdges(n, data)
		b := NewBuilder(n)
		for _, e := range edges {
			//dinfomap:float-ok representation probe: selector 0 adds through AddEdge
			if e.w == 1 {
				b.AddEdge(e.u, e.v)
			} else {
				b.AddWeightedEdge(e.u, e.v, e.w)
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if integral {
			if want := buildSorted(n, edges); !identical(g, want) {
				t.Fatalf("Build = %+v, the sort-based build %+v", g, want)
			}
		}

		// Every arc's weight is its parallel edges' weights summed in
		// input order.
		sum := make(map[[2]int]float64)
		for _, e := range edges {
			sum[[2]int{e.u, e.v}] += e.w
			if e.u != e.v {
				sum[[2]int{e.v, e.u}] += e.w
			}
		}
		arcs := 0
		for u := 0; u < n; u++ {
			g.Neighbors(u, func(v int, w float64) {
				if want := sum[[2]int{u, v}]; math.Float64bits(w) != math.Float64bits(want) {
					t.Fatalf("arc (%d,%d) weighs %v, input-order sum %v", u, v, w, want)
				}
				arcs++
			})
		}
		if arcs != len(sum) {
			t.Fatalf("%d arcs, %d distinct input arcs", arcs, len(sum))
		}

		for p := 1; p <= 4; p++ {
			for rank := 0; rank < p; rank++ {
				if got, want := ingestRows(n, rank, p, edges), g.Rows(rank, p); !rowsEqual(got, want) {
					t.Fatalf("p=%d rank %d: NewRows = %+v, the graph's rows %+v", p, rank, got, want)
				}
			}
		}
	})
}

// TestNewRowsAllocFree pins that NewRows allocates the same small
// constant however many rows it sorts.
func TestNewRowsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	var edges []edgeRec
	for i := 0; i < 8*n; i++ {
		edges = append(edges, edgeRec{rng.Intn(n), rng.Intn(n), float64(1 + rng.Intn(3))})
	}
	k := OwnedCount(n, 0, 1)
	off := make([]int, k+1)
	for _, e := range edges {
		off[e.u+1]++
		if e.u != e.v {
			off[e.v+1]++
		}
	}
	for i := 0; i < k; i++ {
		off[i+1] += off[i]
	}
	ts, ws := make([]int32, off[k]), make([]float64, off[k])
	cursor := slices.Clone(off[:k])
	for _, e := range edges {
		ts[cursor[e.u]], ws[cursor[e.u]] = int32(e.v), e.w
		cursor[e.u]++
		if e.u != e.v {
			ts[cursor[e.v]], ws[cursor[e.v]] = int32(e.u), e.w
			cursor[e.v]++
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		NewRows(n, 0, 1, slices.Clone(off), slices.Clone(ts), slices.Clone(ws))
	})
	// Three clones, the Rows and one sorter.
	if allocs > 5 {
		t.Fatalf("NewRows over %d rows: %v allocations, want at most 2 beyond the inputs", k, allocs-3)
	}
}

// TestAppendWeightMatchesFmt pins the writer's weight bytes to fmt's
// %g on random floats across the legal range, and on integers around
// the 1e6 bound where %g switches to exponent form.
func TestAppendWeightMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := []float64{MinWeight, MaxWeight, 0.5, 1, 2, 999999, 999999.5, 1e6, 1e6 + 1, 123456789, 1e21, 1e22}
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			ws = append(ws, math.Pow(10, -100+200*rng.Float64()))
		case 1:
			ws = append(ws, float64(1+rng.Intn(2_000_000)))
		default:
			ws = append(ws, rng.Float64()*float64(rng.Intn(1000)+1))
		}
	}
	for _, w := range ws {
		if w <= 0 {
			continue
		}
		if got, want := string(appendWeight(nil, w)), fmt.Sprintf("%g", w); got != want {
			t.Fatalf("appendWeight(%v) = %q, fmt %%g gives %q", w, got, want)
		}
	}
}

// writeEdgeListFmt is WriteEdgeList before its byte buffer: one
// fmt.Fprintf per line.
func writeEdgeListFmt(g *Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	g.Edges(func(u, v int, w float64) {
		if g.weights == nil {
			fmt.Fprintf(&b, "%d %d\n", u, v)
		} else {
			fmt.Fprintf(&b, "%d %d %g\n", u, v, w)
		}
	})
	return b.Bytes()
}

// TestWriteEdgeListMatchesFmt pins WriteEdgeList's bytes to the fmt
// writer's on unweighted, integer-weighted and fractional graphs large
// enough to flush the buffer several times.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, weights := range []string{"unit", "integer", "fractional"} {
		b := NewBuilder(5000)
		for i := 0; i < 20000; i++ {
			switch weights {
			case "unit":
				b.AddEdge(rng.Intn(5000), rng.Intn(5000))
			case "integer":
				b.AddWeightedEdge(rng.Intn(5000), rng.Intn(5000), float64(1+rng.Intn(3)))
			default:
				b.AddWeightedEdge(rng.Intn(5000), rng.Intn(5000), rng.Float64()+0.01)
			}
		}
		g := b.Build()
		var got bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if want := writeEdgeListFmt(g); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s weights: WriteEdgeList differs from the fmt writer", weights)
		}
	}
}

// relabelSorted is RelabelByDegree before it permuted the CSR: the
// degree order by comparison sort, then every edge added to a Builder.
func relabelSorted(g *Graph) *Graph {
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
	g.Edges(func(u, v int, w float64) { b.AddWeightedEdge(perm[u], perm[v], w) })
	return b.Build()
}

// TestRelabelByDegreeMatchesBuilder pins the CSR permutation to the
// Builder route bit for bit, weights and self-loops included.
func TestRelabelByDegreeMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(80)
		b := NewBuilder(n)
		for i := rng.Intn(300); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if trial%2 == 0 {
				b.AddEdge(u, v)
			} else {
				b.AddWeightedEdge(u, v, 0.25+rng.Float64())
			}
		}
		g := b.Build()
		got, _ := RelabelByDegree(g)
		if want := relabelSorted(g); !identical(got, want) {
			t.Fatalf("trial %d: RelabelByDegree = %+v, the Builder route %+v", trial, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
