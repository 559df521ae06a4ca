package infomap

import (
	"math"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/metrics"
)

func TestEmptyGraph(t *testing.T) {
	res := Run(graph.NewBuilder(0).Build(), Config{})
	if res.NumModules != 0 || len(res.Communities) != 0 {
		t.Fatalf("empty graph result: %+v", res)
	}
}

func TestEdgelessGraph(t *testing.T) {
	res := Run(graph.NewBuilder(5).Build(), Config{})
	if res.NumModules != 5 {
		t.Fatalf("NumModules = %d, want 5 singletons", res.NumModules)
	}
	if res.Codelength != 0 {
		t.Fatalf("Codelength = %v, want 0", res.Codelength)
	}
}

func TestSingleEdge(t *testing.T) {
	g := graph.FromEdges(2, [][2]int{{0, 1}})
	res := Run(g, Config{})
	if res.Communities[0] != res.Communities[1] {
		t.Fatalf("two connected vertices should merge: %v", res.Communities)
	}
	if res.NumModules != 1 {
		t.Fatalf("NumModules = %d, want 1", res.NumModules)
	}
}

func TestTwoTrianglesWithBridge(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{2, 3},
	})
	res := Run(g, Config{Seed: 1})
	if res.NumModules != 2 {
		t.Fatalf("NumModules = %d, want 2 (the two triangles)", res.NumModules)
	}
	c := res.Communities
	if c[0] != c[1] || c[1] != c[2] {
		t.Errorf("first triangle split: %v", c)
	}
	if c[3] != c[4] || c[4] != c[5] {
		t.Errorf("second triangle split: %v", c)
	}
	if c[0] == c[3] {
		t.Errorf("triangles merged: %v", c)
	}
	if res.Codelength >= res.InitialCodelength {
		t.Errorf("L = %v did not improve on initial %v", res.Codelength, res.InitialCodelength)
	}
}

func TestCodelengthDecreasesMonotonically(t *testing.T) {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 400, NumComms: 10, AvgDegree: 8, Mixing: 0.15,
	})
	res := Run(g, Config{Seed: 7})
	last := math.Inf(1)
	for i, l := range res.MDLTrace {
		if l > last+1e-9 {
			t.Fatalf("MDL increased at outer iteration %d: %v -> %v", i, last, l)
		}
		last = l
	}
	if res.OuterIterations < 1 {
		t.Fatal("no outer iterations recorded")
	}
}

func TestRecoversPlantedCommunities(t *testing.T) {
	g, truth := gen.PlantedPartition(11, gen.PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 10, Mixing: 0.1,
	})
	res := Run(g, Config{Seed: 5})
	nmi := metrics.NMI(res.Communities, truth)
	if nmi < 0.85 {
		t.Fatalf("NMI vs planted truth = %.3f, want >= 0.85 (found %d modules for 12 planted)",
			nmi, res.NumModules)
	}
}

func TestDisconnectedComponentsStaySeparate(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	res := Run(g, Config{Seed: 2})
	c := res.Communities
	if c[0] == c[3] {
		t.Fatalf("disconnected components merged: %v", c)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g, _ := gen.PlantedPartition(13, gen.PlantedConfig{
		N: 300, NumComms: 8, AvgDegree: 8, Mixing: 0.2,
	})
	a := Run(g, Config{Seed: 42})
	b := Run(g, Config{Seed: 42})
	if a.Codelength != b.Codelength || a.NumModules != b.NumModules {
		t.Fatalf("same seed, different results: L %v vs %v, k %d vs %d",
			a.Codelength, b.Codelength, a.NumModules, b.NumModules)
	}
	for u := range a.Communities {
		if a.Communities[u] != b.Communities[u] {
			t.Fatalf("assignments differ at %d", u)
		}
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g, _ := gen.PlantedPartition(17, gen.PlantedConfig{
		N: 500, NumComms: 10, AvgDegree: 8, Mixing: 0.3,
	})
	res := Run(g, Config{Seed: 1, MaxIterations: 1})
	if res.OuterIterations != 1 {
		t.Fatalf("OuterIterations = %d, want 1", res.OuterIterations)
	}
}

func TestMergeRateTraceShape(t *testing.T) {
	g, _ := gen.PlantedPartition(19, gen.PlantedConfig{
		N: 800, NumComms: 16, AvgDegree: 8, Mixing: 0.15,
	})
	res := Run(g, Config{Seed: 3})
	if len(res.MergeRate) != res.OuterIterations {
		t.Fatalf("MergeRate has %d entries for %d iterations",
			len(res.MergeRate), res.OuterIterations)
	}
	// First iteration merges most vertices on a well-clustered graph.
	if res.MergeRate[0] < 0.5 {
		t.Errorf("first-iteration merge rate = %.2f, want >= 0.5", res.MergeRate[0])
	}
	for i, r := range res.MergeRate {
		if r < 0 || r > 1 {
			t.Errorf("merge rate [%d] = %v out of [0,1]", i, r)
		}
	}
}

func TestCommunitiesAreDense(t *testing.T) {
	g, _ := gen.PlantedPartition(23, gen.PlantedConfig{
		N: 200, NumComms: 5, AvgDegree: 8, Mixing: 0.2,
	})
	res := Run(g, Config{Seed: 9})
	seen := make([]bool, res.NumModules)
	for _, c := range res.Communities {
		if c < 0 || c >= res.NumModules {
			t.Fatalf("community id %d out of [0,%d)", c, res.NumModules)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("community id %d unused", c)
		}
	}
}

func TestFinalCodelengthMatchesPartition(t *testing.T) {
	// The reported codelength must equal a from-scratch evaluation of
	// the reported partition on the ORIGINAL graph (two-level property
	// of the aggregation: L is invariant under contraction).
	g, _ := gen.PlantedPartition(29, gen.PlantedConfig{
		N: 300, NumComms: 10, AvgDegree: 8, Mixing: 0.2,
	})
	res := Run(g, Config{Seed: 4})
	l := CodelengthOf(g, res.Communities)
	if math.Abs(l-res.Codelength) > 1e-6 {
		t.Fatalf("reported L = %v, partition evaluates to %v", res.Codelength, l)
	}
}

func TestBetterThanModularityNull(t *testing.T) {
	// Infomap's partition should have strongly positive modularity on a
	// community-structured graph (cross-metric sanity).
	g, _ := gen.PlantedPartition(31, gen.PlantedConfig{
		N: 400, NumComms: 8, AvgDegree: 10, Mixing: 0.15,
	})
	res := Run(g, Config{Seed: 6})
	if q := metrics.Modularity(g, res.Communities); q < 0.4 {
		t.Fatalf("modularity of Infomap partition = %.3f, want >= 0.4", q)
	}
}

func TestStarGraphSingleModule(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, v)
	}
	res := Run(b.Build(), Config{Seed: 1})
	// A star compresses best as a single module.
	if res.NumModules != 1 {
		t.Fatalf("star NumModules = %d, want 1", res.NumModules)
	}
}

func TestDeltaEvaluationsCounted(t *testing.T) {
	g, _ := gen.PlantedPartition(37, gen.PlantedConfig{
		N: 200, NumComms: 5, AvgDegree: 6, Mixing: 0.2,
	})
	res := Run(g, Config{Seed: 2})
	if res.DeltaEvaluations <= 0 {
		t.Fatal("DeltaEvaluations not counted")
	}
	if res.Moves <= 0 {
		t.Fatal("Moves not counted")
	}
}

// seqAllocCeiling bounds the allocations of one sequential run with
// seed 1 on the planted graph below. The run makes 594–596 allocations;
// the ceiling leaves 0.5% over 595, so one new allocation per move pass
// or per level fails.
const seqAllocCeiling = 598

// TestSequentialAllocBudget pins the allocation count of a whole
// sequential run: flow init, every level's move passes and contraction.
// Allocation counts repeat on every host, so no baseline file is needed.
func TestSequentialAllocBudget(t *testing.T) {
	g, _ := gen.PlantedPartition(11, gen.PlantedConfig{
		N: 2000, NumComms: 40, AvgDegree: 10, Mixing: 0.2, DegreeGamma: 2.5,
	})
	cfg := Config{Seed: 1}
	avg := testing.AllocsPerRun(3, func() { Run(g, cfg) })
	t.Logf("sequential Run: %v allocs/op (ceiling %d)", avg, seqAllocCeiling)
	if avg > seqAllocCeiling {
		t.Fatalf("sequential Run: %v allocs/op, want at most %d", avg, seqAllocCeiling)
	}
}
