package core

import (
	"cmp"
	"slices"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/partition"
)

// TestResultCarriesGraphSize pins that a Result reports the input
// graph's size, so the multi-process launcher can print it without
// loading the graph: NumEdges rides in rank 0's artifact and the vertex
// count is the length of the partition. The launch package runs the
// same check over real rank processes.
func TestResultCarriesGraphSize(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	edgeless := graph.FromEdges(5, nil)
	cfg := Config{P: 3, Seed: 42}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		res  *Result
	}{
		{"Run", g, Run(g, cfg)},
		{"Run on an edgeless graph", edgeless, Run(edgeless, cfg)},
	} {
		if tc.res.NumEdges != tc.g.NumEdges() {
			t.Errorf("%s: NumEdges = %d, graph has %d", tc.name, tc.res.NumEdges, tc.g.NumEdges())
		}
		if len(tc.res.Communities) != tc.g.NumVertices() {
			t.Errorf("%s: %d communities, graph has %d vertices",
				tc.name, len(tc.res.Communities), tc.g.NumVertices())
		}
	}
}

// TestRanksReleaseArcLists pins the memory contract of rank set-up:
// no rank holds the graph or another rank's arcs. Each rank's
// preprocessing builds exactly its own list of the delegate layout
// (partition.Delegate's list for that rank, grouped by evaluation
// vertex in list order) from its own rows, and every rank returns
// Delegate's layout summary in its artifact.
func TestRanksReleaseArcLists(t *testing.T) {
	g, _ := planted(3, 400, 8, 0.2)
	cfg := Config{P: 3, Seed: 1}.withDefaults()
	layout := partition.Delegate(g, cfg.P, partition.DelegateOptions{
		DHigh: defaultDHigh(cfg.P, g.NumVertices(), g.NumEdges()),
	})
	want := layout.Stats()
	lists := make([][]partition.Arc, cfg.P)
	mpi.Run(cfg.P, func(c *mpi.Comm) {
		in := preprocess(c, &cfg, g.Rows(c.Rank(), c.Size()), c.NewSendBuffers())
		lists[c.Rank()] = in.adj.arcs()
	})
	for r, l := range layout.RankArcs {
		if !slices.Equal(lists[r], groupedByU(l)) {
			t.Fatalf("rank %d's preprocessed list differs from partition.Delegate's", r)
		}
	}
	arts := make([]*RankArtifact, cfg.P)
	runStart := forcedCycles()
	mpi.Run(cfg.P, func(c *mpi.Comm) {
		var err error
		if arts[c.Rank()], err = rankMain(c, source{g: g}, cfg, runStart); err != nil {
			t.Error(err)
		}
	})
	for r, a := range arts {
		if st := a.Partition; st != want {
			t.Errorf("rank %d layout summary %+v, Delegate has %+v", r, st, want)
		}
	}
}

// arcs lists the adjacency's arcs in CSR order.
func (a *adjacency) arcs() []partition.Arc {
	var out []partition.Arc
	for i, u := range a.evalVerts {
		for j := a.evalOff[i]; j < a.evalOff[i+1]; j++ {
			out = append(out, partition.Arc{U: int32(u), V: a.adjV[j], W: a.adjW[j]})
		}
	}
	return out
}

// groupedByU returns a copy of list stably sorted by evaluation vertex.
func groupedByU(list []partition.Arc) []partition.Arc {
	out := slices.Clone(list)
	slices.SortStableFunc(out, func(x, y partition.Arc) int { return cmp.Compare(x.U, y.U) })
	return out
}

// adjacencyOf groups list, which must be sorted by evaluation vertex.
func adjacencyOf(list []partition.Arc) adjacency {
	a := adjacency{evalOff: []int{0}}
	for j, x := range list {
		if j > 0 && x.U != list[j-1].U {
			a.evalOff = append(a.evalOff, j)
		}
		if j == 0 || x.U != list[j-1].U {
			a.evalVerts = append(a.evalVerts, int(x.U))
		}
		a.adjV = append(a.adjV, x.V)
		a.adjW = append(a.adjW, x.W)
	}
	if len(list) > 0 {
		a.evalOff = append(a.evalOff, len(list))
	}
	return a
}

// TestAdjacencyRebalanceMatchesList checks the rebalance steps on the
// grouped adjacency against partition.TakeHubArcs and an append on the
// list followed by a stable regrouping, on random sorted lists: same
// removed arcs in the same order, same groups, same order in each group.
func TestAdjacencyRebalanceMatchesList(t *testing.T) {
	r := gen.NewRNG(17)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(12)
		isHub := make([]bool, n)
		for u := range isHub {
			isHub[u] = r.Intn(3) == 0
		}
		var list []partition.Arc
		for u := 0; u < n; u++ {
			for k := r.Intn(5); k > 0; k-- {
				list = append(list, partition.Arc{U: int32(u), V: int32(r.Intn(n)), W: float64(len(list) + 1)})
			}
		}
		hubs := partition.CountHubArcs(list, isHub)
		adj := adjacencyOf(list)
		if got := adj.hubArcs(isHub); got != hubs {
			t.Fatalf("trial %d: hubArcs = %d, list has %d", trial, got, hubs)
		}
		k := r.Intn(hubs + 1)
		rest, moved := partition.TakeHubArcs(slices.Clone(list), isHub, k, nil)
		var got []partition.Arc
		adj.takeHubArcs(isHub, k, func(u int, v int32, w float64) {
			got = append(got, partition.Arc{U: int32(u), V: v, W: w})
		})
		if !slices.Equal(got, moved) {
			t.Fatalf("trial %d: took %v, TakeHubArcs took %v", trial, got, moved)
		}
		want := groupedByU(rest)
		if a := adj.arcs(); !slices.Equal(a, want) || len(adj.evalOff) != len(adj.evalVerts)+1 {
			t.Fatalf("trial %d: after taking %d of %v\n got %v\nwant %v", trial, k, list, a, want)
		}

		// A destination appends what it receives in arrival order.
		var in []partition.Arc
		for j := r.Intn(6); j > 0; j-- {
			in = append(in, partition.Arc{U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: float64(-j)})
		}
		want = groupedByU(append(want, in...))
		adj.addHubArcs(slices.Clone(in))
		if a := adj.arcs(); !slices.Equal(a, want) || len(adj.evalOff) != len(adj.evalVerts)+1 {
			t.Fatalf("trial %d: after adding %v\n got %v\nwant %v", trial, in, a, want)
		}
	}
}
