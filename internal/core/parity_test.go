package core

import (
	"reflect"
	"testing"

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
// (partition.Delegate's list for that rank, order included) from its
// own rows, the run state keeps no list once the levels hold the arcs,
// and every rank reports Delegate's layout summary.
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
		lists[c.Rank()] = in.arcs
	})
	if !reflect.DeepEqual(lists, layout.RankArcs) {
		t.Fatal("the ranks' preprocessed lists differ from partition.Delegate's")
	}
	rs := newRunState(source{g: g}, &cfg)
	mpi.Run(cfg.P, rs.rankMain)
	for r, a := range rs.arts {
		if st := a.Partition; st != want {
			t.Errorf("rank %d layout summary %+v, Delegate has %+v", r, st, want)
		}
	}
}
