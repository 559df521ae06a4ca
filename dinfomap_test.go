package dinfomap

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 8, Mixing: 0.15,
	}, 42)
	g := pg.Graph

	seq := RunSequential(g, SequentialConfig{Seed: 1})
	dist := RunDistributed(g, DistributedConfig{P: 4, Seed: 1})
	if seq.NumModules < 2 || dist.NumModules < 2 {
		t.Fatalf("degenerate results: seq=%d dist=%d", seq.NumModules, dist.NumModules)
	}
	q := ComparePartitions(dist.Communities, seq.Communities)
	if q.NMI < 0.7 {
		t.Fatalf("distributed vs sequential NMI = %.3f", q.NMI)
	}
	if NMI(dist.Communities, pg.Truth) < 0.7 {
		t.Fatalf("distributed vs truth NMI too low")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	pg := GeneratePlanted(PlantedConfig{
		N: 400, NumComms: 8, AvgDegree: 8, Mixing: 0.2,
	}, 7)
	g := pg.Graph
	if r := RunRelax(g, RelaxConfig{Workers: 2, Seed: 1}); r.NumModules < 2 {
		t.Errorf("Relax modules = %d", r.NumModules)
	}
	if r := RunGossip(g, GossipConfig{P: 2, Seed: 1}); r.NumModules < 2 {
		t.Errorf("Gossip modules = %d", r.NumModules)
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", g2.NumEdges())
	}
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 2.5)
	if b.Build().TotalWeight() != 2.5 {
		t.Fatal("builder weight lost")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	g := GeneratePowerLaw(3, 2000, 2.1, 2, 200)
	st := ComputeDegreeStats(g)
	if st.Max < 20 {
		t.Errorf("power-law max degree = %d", st.Max)
	}
	ba := GenerateBarabasiAlbert(5, 500, 3)
	if ba.NumVertices() != 500 {
		t.Errorf("BA vertices = %d", ba.NumVertices())
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	names := Datasets()
	if len(names) != 9 {
		t.Fatalf("Datasets() returned %d names, want 9", len(names))
	}
	d, err := LookupDataset("amazon")
	if err != nil {
		t.Fatal(err)
	}
	g, truth := d.Generate()
	if g.NumEdges() == 0 || truth == nil {
		t.Fatal("amazon stand-in did not generate")
	}
	if _, err := LookupDataset("bogus"); err == nil {
		t.Fatal("LookupDataset accepted bogus name")
	}
}

func TestPublicAPIPartitionAnalysis(t *testing.T) {
	g := GeneratePowerLaw(11, 3000, 2.0, 2, 300)
	oneD := Analyze1D(g, 8)
	del := AnalyzeDelegate(g, 8)
	if del.EdgeImbalance >= oneD.EdgeImbalance {
		t.Errorf("delegate imbalance %.2f not better than 1D %.2f",
			del.EdgeImbalance, oneD.EdgeImbalance)
	}
	if hubs := AnalyzeDelegate(g, 1).NumHubs; hubs != 0 {
		t.Errorf("one rank delegated %d hubs, want 0", hubs)
	}
}

// TestSingleRankWorkInflation pins the one-rank target of the
// distributed sweep: at p = 1 it makes at most 1.25 times the delta-L
// evaluations of sequential Infomap on the same graph, for a codelength
// within 0.5% of sequential's. Evaluation counts are deterministic in
// the graph and the seed.
func TestSingleRankWorkInflation(t *testing.T) {
	for _, name := range []string{"amazon", "dblp", "ndweb", "youtube"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := LookupDataset(name)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := d.Generate()
			seq := RunSequential(g, SequentialConfig{Seed: 1})
			dist := RunDistributed(g, DistributedConfig{P: 1, Seed: 1})
			inflation := float64(dist.DeltaEvaluations) / float64(seq.DeltaEvaluations)
			if inflation > 1.25 {
				t.Errorf("p = 1 made %d evaluations, %.2f× sequential's %d; want at most 1.25×",
					dist.DeltaEvaluations, inflation, seq.DeltaEvaluations)
			}
			if rel := math.Abs(dist.Codelength/seq.Codelength - 1); rel > 0.005 {
				t.Errorf("p = 1 codelength %.6f is %.2f%% from sequential's %.6f; want within 0.5%%",
					dist.Codelength, 100*rel, seq.Codelength)
			}
		})
	}
}

// TestMultiRankWorkInflation pins the p > 1 target: at p = 2 and 4 the
// distributed run makes at most 1.6 times sequential Infomap's delta-L
// evaluations, for a codelength within 0.5% of sequential's. Without the
// return and hub swap rules, vertices bouncing between ranks pushed
// these datasets to 1.65-2.01×. ndweb is left out: it stays at 3.4-3.6×
// (see ROADMAP.md).
func TestMultiRankWorkInflation(t *testing.T) {
	for _, name := range []string{"amazon", "dblp", "youtube", "livejournal"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := LookupDataset(name)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := d.Generate()
			seq := RunSequential(g, SequentialConfig{Seed: 1})
			for _, p := range []int{2, 4} {
				dist := RunDistributed(g, DistributedConfig{P: p, Seed: 1})
				inflation := float64(dist.DeltaEvaluations) / float64(seq.DeltaEvaluations)
				if inflation > 1.6 {
					t.Errorf("p = %d made %d evaluations, %.2f× sequential's %d; want at most 1.6×",
						p, dist.DeltaEvaluations, inflation, seq.DeltaEvaluations)
				}
				if rel := math.Abs(dist.Codelength/seq.Codelength - 1); rel > 0.005 {
					t.Errorf("p = %d codelength %.6f is %.2f%% from sequential's %.6f; want within 0.5%%",
						p, dist.Codelength, 100*rel, seq.Codelength)
				}
			}
		})
	}
}

// TestSingleRankIgnoresMinLabel: on one rank nothing is remote and
// nothing is delegated, so no minimum-label rule can fire and NoMinLabel
// must leave the partition byte-identical.
func TestSingleRankIgnoresMinLabel(t *testing.T) {
	for _, name := range []string{"amazon", "dblp", "youtube", "livejournal"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := LookupDataset(name)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := d.Generate()
			on := RunDistributed(g, DistributedConfig{P: 1, Seed: 1})
			off := RunDistributed(g, DistributedConfig{P: 1, Seed: 1, NoMinLabel: true})
			if !slices.Equal(on.Communities, off.Communities) {
				t.Error("NoMinLabel changed the p = 1 partition")
			}
			for _, st := range on.Ranks[0].MinLabel {
				if st.RefusedReturns != 0 || st.SkippedSwaps != 0 {
					t.Errorf("p = 1 minimum-label counts %+v, want zero", st)
				}
			}
		})
	}
}

func TestPublicAPIMetrics(t *testing.T) {
	g := FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	comm := []int{0, 0, 0, 1, 1, 1}
	if q := Modularity(g, comm); math.Abs(q-5.0/14) > 1e-9 {
		t.Errorf("Modularity = %v", q)
	}
	if l := CodelengthOf(g, comm); l <= 0 {
		t.Errorf("CodelengthOf = %v", l)
	}
}
