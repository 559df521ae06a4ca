package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContractTwoTriangles(t *testing.T) {
	// Two triangles joined by one bridge edge 2-3.
	g := FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{2, 3},
	})
	comm := []int{0, 0, 0, 1, 1, 1}
	cg, remap := Contract(g, comm)
	if cg.NumVertices() != 2 {
		t.Fatalf("contracted vertices = %d, want 2", cg.NumVertices())
	}
	a, b := remap[0], remap[1]
	if w := cg.EdgeWeight(a, a); w != 3 {
		t.Errorf("self-loop weight on community 0 = %v, want 3", w)
	}
	if w := cg.EdgeWeight(b, b); w != 3 {
		t.Errorf("self-loop weight on community 1 = %v, want 3", w)
	}
	if w := cg.EdgeWeight(a, b); w != 1 {
		t.Errorf("inter-community weight = %v, want 1", w)
	}
	if cg.TotalWeight() != g.TotalWeight() {
		t.Errorf("total weight changed: %v -> %v", g.TotalWeight(), cg.TotalWeight())
	}
}

func TestContractSingletonIdentity(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	comm := []int{0, 1, 2, 3}
	cg, _ := Contract(g, comm)
	if cg.NumVertices() != 4 || cg.NumEdges() != 3 {
		t.Fatalf("singleton contraction changed shape: n=%d m=%d", cg.NumVertices(), cg.NumEdges())
	}
}

func TestContractAllIntoOne(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	comm := []int{7, 7, 7, 7} // non-dense community id
	cg, remap := Contract(g, comm)
	if cg.NumVertices() != 1 {
		t.Fatalf("vertices = %d, want 1", cg.NumVertices())
	}
	if w := cg.EdgeWeight(remap[7], remap[7]); w != 4 {
		t.Fatalf("self-loop = %v, want 4", w)
	}
}

func TestContractPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Contract(triangle(), []int{0, 1})
}

func TestRenumber(t *testing.T) {
	dense, k := Renumber([]int{5, 5, 9, 2, 9})
	want := []int{0, 0, 1, 2, 1}
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense = %v, want %v", dense, want)
		}
	}
}

// Property: contraction preserves total edge weight for random graphs and
// random assignments.
func TestPropertyContractPreservesWeight(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 90)
		k := int(kRaw)%5 + 1
		comm := make([]int, g.NumVertices())
		for i := range comm {
			comm[i] = rng.Intn(k)
		}
		cg, _ := Contract(g, comm)
		return math.Abs(cg.TotalWeight()-g.TotalWeight()) < 1e-9 && cg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: contracting by connected-component labels yields a graph with
// no inter-vertex edges (only self-loops).
func TestPropertyContractComponentsOnlySelfLoops(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 25, 20) // sparse: several components
		labels, _ := ConnectedComponents(g)
		cg, _ := Contract(g, labels)
		ok := true
		cg.Edges(func(u, v int, _ float64) {
			if u != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
