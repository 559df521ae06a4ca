package core

import (
	"testing"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
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
// each rank drops its arc list once its stage-1 level holds the arcs in
// CSR form, and the layout summary that every artifact carries is taken
// before any list is dropped.
func TestRanksReleaseArcLists(t *testing.T) {
	g, _ := planted(3, 400, 8, 0.2)
	cfg := Config{P: 3, Seed: 1}.withDefaults()
	rs := newRunState(g, &cfg)
	want := rs.layout.Stats()
	if rs.partStats != want {
		t.Fatalf("partStats = %+v, layout has %+v", rs.partStats, want)
	}
	mpi.Run(cfg.P, rs.rankMain)
	for r, arcs := range rs.layout.RankArcs {
		if arcs != nil {
			t.Errorf("rank %d still holds %d arcs after the run", r, len(arcs))
		}
	}
	if rs.partStats != want {
		t.Errorf("partStats changed during the run: %+v, want %+v", rs.partStats, want)
	}
}
