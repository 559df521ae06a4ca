package graph

import (
	"math"
	"testing"
)

func TestDegreeStatsStar(t *testing.T) {
	b := NewBuilder(101)
	for v := 1; v <= 100; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	st := ComputeDegreeStats(g)
	if st.Max != 100 {
		t.Errorf("Max = %d, want 100", st.Max)
	}
	if st.Min != 1 {
		t.Errorf("Min = %d, want 1", st.Min)
	}
	if st.Median != 1 {
		t.Errorf("Median = %d, want 1", st.Median)
	}
	// In a star, the single hub (top 1%) carries half of all arcs.
	if st.HubFrac < 0.49 || st.HubFrac > 0.51 {
		t.Errorf("HubFrac = %v, want ~0.5", st.HubFrac)
	}
	if st.GiniCoeff < 0.4 {
		t.Errorf("GiniCoeff = %v, want high inequality for a star", st.GiniCoeff)
	}
}

func TestDegreeStatsRegular(t *testing.T) {
	// Ring: every vertex has degree exactly 2 -> zero inequality.
	b := NewBuilder(50)
	for u := 0; u < 50; u++ {
		b.AddEdge(u, (u+1)%50)
	}
	st := ComputeDegreeStats(b.Build())
	if st.Min != 2 || st.Max != 2 {
		t.Fatalf("ring degrees [%d,%d], want [2,2]", st.Min, st.Max)
	}
	if math.Abs(st.GiniCoeff) > 1e-12 {
		t.Errorf("GiniCoeff = %v, want 0 for regular graph", st.GiniCoeff)
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	st := ComputeDegreeStats(NewBuilder(0).Build())
	if st.Max != 0 || st.Mean != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}}) // {0,1,2} {3,4} {5} {6}
	labels, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("vertices 0,1,2 not in one component: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Errorf("vertices 3,4 not in one component: %v", labels)
	}
	if labels[5] == labels[6] || labels[5] == labels[0] {
		t.Errorf("isolated vertices share a component: %v", labels)
	}
}

func TestRelabelByDegree(t *testing.T) {
	// Star with spoke-spoke edge: vertex 3 is the hub in the original ids.
	b := NewBuilder(5)
	for v := 0; v < 5; v++ {
		if v != 3 {
			b.AddEdge(3, v)
		}
	}
	b.AddEdge(0, 1)
	g := b.Build()
	rg, perm := RelabelByDegree(g)
	if perm[3] != 0 {
		t.Fatalf("hub not relabeled to 0: perm = %v", perm)
	}
	if rg.Degree(0) != g.Degree(3) {
		t.Fatalf("new vertex 0 degree %d, want %d", rg.Degree(0), g.Degree(3))
	}
	// Degrees descending in the new labeling.
	for u := 1; u < rg.NumVertices(); u++ {
		if rg.Degree(u) > rg.Degree(u-1) {
			t.Fatalf("degrees not descending at %d: %d > %d", u, rg.Degree(u), rg.Degree(u-1))
		}
	}
	// Structure preserved: edge {0,1} maps to {perm[0], perm[1]}.
	if !rg.HasEdge(perm[0], perm[1]) {
		t.Fatal("edge lost by relabeling")
	}
	if rg.NumEdges() != g.NumEdges() || rg.TotalWeight() != g.TotalWeight() {
		t.Fatal("counts changed by relabeling")
	}
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRelabelByDegreeEmpty(t *testing.T) {
	rg, perm := RelabelByDegree(NewBuilder(0).Build())
	if rg.NumVertices() != 0 || len(perm) != 0 {
		t.Fatal("empty relabel broken")
	}
}
