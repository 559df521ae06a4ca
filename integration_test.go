package dinfomap

// Integration tests: cross-module workflows through the public API —
// file round trips feeding algorithms, weighted graphs, cross-algorithm
// consistency, and determinism of full pipelines.

import (
	"bytes"
	"math"
	"testing"
)

// TestFileWorkflow drives the full user workflow: generate, write to an
// edge list, read back, cluster, and compare against clustering the
// original graph directly.
func TestFileWorkflow(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 500, NumComms: 10, AvgDegree: 8, Mixing: 0.2,
	}, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, pg.Graph); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := RunDistributed(pg.Graph, DistributedConfig{P: 4, Seed: 9})
	b := RunDistributed(g2, DistributedConfig{P: 4, Seed: 9})
	if a.Codelength != b.Codelength {
		t.Fatalf("file round trip changed the result: %v vs %v", a.Codelength, b.Codelength)
	}
}

// TestWeightedGraphsSupported verifies the full stack accepts weighted
// graphs: heavier intra-cluster edges should dominate the partition
// even when topology alone is ambiguous.
func TestWeightedGraphsSupported(t *testing.T) {
	// A 6-cycle where alternating heavy edges define three pairs.
	b := NewBuilder(6)
	heavy := 10.0
	for i := 0; i < 6; i++ {
		w := 1.0
		if i%2 == 0 {
			w = heavy
		}
		b.AddWeightedEdge(i, (i+1)%6, w)
	}
	g := b.Build()
	seq := RunSequential(g, SequentialConfig{Seed: 1})
	if seq.NumModules != 3 {
		t.Fatalf("weighted sequential found %d modules, want 3 heavy pairs", seq.NumModules)
	}
	for i := 0; i < 6; i += 2 {
		if seq.Communities[i] != seq.Communities[i+1] {
			t.Fatalf("heavy pair (%d,%d) split: %v", i, i+1, seq.Communities)
		}
	}
	dist := RunDistributed(g, DistributedConfig{P: 2, Seed: 1})
	if dist.NumModules != 3 {
		t.Fatalf("weighted distributed found %d modules, want 3", dist.NumModules)
	}
}

// TestAllAlgorithmsAgreeOnStrongStructure: with very strong community
// structure, all four algorithms must find essentially the same answer.
func TestAllAlgorithmsAgreeOnStrongStructure(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 600, NumComms: 10, AvgDegree: 12, Mixing: 0.05,
	}, 17)
	g := pg.Graph
	partitions := map[string][]int{
		"sequential":  RunSequential(g, SequentialConfig{Seed: 2}).Communities,
		"distributed": RunDistributed(g, DistributedConfig{P: 4, Seed: 2}).Communities,
		"relax":       RunRelax(g, RelaxConfig{Workers: 4, Seed: 2}).Communities,
		"gossip":      RunGossip(g, GossipConfig{P: 4, Seed: 2}).Communities,
	}
	for name, comm := range partitions {
		if nmi := NMI(comm, pg.Truth); nmi < 0.95 {
			t.Errorf("%s: NMI vs truth = %.3f on trivially clustered graph", name, nmi)
		}
	}
}

// TestCodelengthOrderingInvariant: for any partition pair on the same
// graph, CodelengthOf must rank the sequential result at least as well
// as a random partition.
func TestCodelengthOrderingInvariant(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 400, NumComms: 8, AvgDegree: 8, Mixing: 0.2,
	}, 23)
	g := pg.Graph
	seq := RunSequential(g, SequentialConfig{Seed: 3})
	// A deliberately bad partition: round-robin into 8 buckets.
	bad := make([]int, g.NumVertices())
	for i := range bad {
		bad[i] = i % 8
	}
	if CodelengthOf(g, seq.Communities) >= CodelengthOf(g, bad) {
		t.Fatal("sequential partition not better than round-robin buckets")
	}
	// Ground truth should be near the sequential optimum.
	if CodelengthOf(g, pg.Truth) > seq.Codelength*1.1 {
		t.Fatal("planted truth codelength suspiciously far from optimized")
	}
}

// TestDistributedResultRanksIdentical re-runs with multiple P values
// and checks invariant bookkeeping: community ids dense, codelength
// exact, traces non-empty, partition stats populated.
func TestDistributedResultInvariants(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 300, NumComms: 6, AvgDegree: 8, Mixing: 0.2,
	}, 29)
	for _, p := range []int{1, 3, 5, 8} {
		res := RunDistributed(pg.Graph, DistributedConfig{P: p, Seed: 4})
		if len(res.Communities) != pg.Graph.NumVertices() {
			t.Fatalf("p=%d: %d assignments for %d vertices",
				p, len(res.Communities), pg.Graph.NumVertices())
		}
		if got := CodelengthOf(pg.Graph, res.Communities); math.Abs(got-res.Codelength) > 1e-6 {
			t.Errorf("p=%d: reported L %v, actual %v", p, res.Codelength, got)
		}
		if len(res.MDLTrace) == 0 || len(res.MergeRate) == 0 {
			t.Errorf("p=%d: traces missing", p)
		}
		if len(res.CommStats) != p {
			t.Errorf("p=%d: %d comm stats", p, len(res.CommStats))
		}
	}
}

// TestSelfLoopGraphEndToEnd: self-loops must survive the whole pipeline.
func TestSelfLoopGraphEndToEnd(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	seq := RunSequential(g, SequentialConfig{Seed: 1})
	dist := RunDistributed(g, DistributedConfig{P: 2, Seed: 1})
	if math.Abs(CodelengthOf(g, dist.Communities)-dist.Codelength) > 1e-9 {
		t.Fatal("distributed codelength inconsistent with self-loops")
	}
	if seq.Communities[2] != seq.Communities[3] {
		t.Fatal("sequential split the 2-3 pair")
	}
	if dist.Communities[2] != dist.Communities[3] {
		t.Fatal("distributed split the 2-3 pair")
	}
}

// TestStarGraphAllAlgorithms: a star is one module under the map
// equation; no algorithm may crash or split it badly.
func TestStarGraphAllAlgorithms(t *testing.T) {
	b := NewBuilder(51)
	for v := 1; v <= 50; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	if r := RunSequential(g, SequentialConfig{Seed: 1}); r.NumModules != 1 {
		t.Errorf("sequential: %d modules on a star", r.NumModules)
	}
	if r := RunDistributed(g, DistributedConfig{P: 4, Seed: 1}); r.NumModules != 1 {
		t.Errorf("distributed: %d modules on a star", r.NumModules)
	}
	if r := RunRelax(g, RelaxConfig{Workers: 2, Seed: 1}); r.NumModules != 1 {
		t.Errorf("relax: %d modules on a star", r.NumModules)
	}
}
