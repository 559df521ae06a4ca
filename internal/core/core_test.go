package core

import (
	"math"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/infomap"
	"dinfomap/internal/metrics"
	"dinfomap/internal/obs"
)

func planted(seed uint64, n, k int, mixing float64) (*graph.Graph, []int) {
	return gen.PlantedPartition(seed, gen.PlantedConfig{
		N: n, NumComms: k, AvgDegree: 8, Mixing: mixing, DegreeGamma: 2.5,
	})
}

func TestEmptyGraph(t *testing.T) {
	res := Run(graph.NewBuilder(0).Build(), Config{P: 2})
	if res.NumModules != 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestEdgelessGraph(t *testing.T) {
	res := Run(graph.NewBuilder(4).Build(), Config{P: 2})
	if res.NumModules != 4 {
		t.Fatalf("NumModules = %d, want 4 singletons", res.NumModules)
	}
}

func TestSingleRankMatchesStructure(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	res := Run(g, Config{P: 1, Seed: 1})
	if res.NumModules != 2 {
		t.Fatalf("NumModules = %d, want 2", res.NumModules)
	}
	c := res.Communities
	if c[0] != c[1] || c[1] != c[2] || c[3] != c[4] || c[4] != c[5] || c[0] == c[3] {
		t.Fatalf("wrong communities: %v", c)
	}
}

func TestTwoTrianglesMultiRank(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	for _, p := range []int{2, 3, 4} {
		res := Run(g, Config{P: p, Seed: 1})
		c := res.Communities
		if res.NumModules != 2 || c[0] != c[1] || c[1] != c[2] ||
			c[3] != c[4] || c[4] != c[5] || c[0] == c[3] {
			t.Errorf("p=%d: modules=%d communities=%v", p, res.NumModules, c)
		}
	}
}

func TestConvergesOnPlanted(t *testing.T) {
	g, truth := planted(41, 800, 16, 0.15)
	res := Run(g, Config{P: 4, Seed: 3})
	if res.Stage1Iterations >= 100 {
		t.Errorf("stage 1 did not converge: %d sweeps", res.Stage1Iterations)
	}
	nmi := metrics.NMI(res.Communities, truth)
	if nmi < 0.85 {
		t.Errorf("NMI vs truth = %.3f (modules=%d), want >= 0.85", nmi, res.NumModules)
	}
}

// TestQualityMatchesSequential is the Table 2 claim in miniature: the
// distributed partition must be close to the sequential one.
func TestQualityMatchesSequential(t *testing.T) {
	g, _ := planted(43, 1000, 20, 0.2)
	seq := infomap.Run(g, infomap.Config{Seed: 5})
	dist := Run(g, Config{P: 4, Seed: 5})
	q := metrics.Compare(dist.Communities, seq.Communities)
	if q.NMI < 0.85 || q.FMeasure < 0.6 || q.Jaccard < 0.45 {
		t.Errorf("distributed vs sequential quality too low: %v "+
			"(dist modules=%d seq modules=%d)", q, dist.NumModules, seq.NumModules)
	}
}

// TestMDLCloseToSequential is the Figure 4 claim: converged MDL within a
// few percent of the sequential algorithm's.
func TestMDLCloseToSequential(t *testing.T) {
	g, _ := planted(47, 1000, 20, 0.2)
	seq := infomap.Run(g, infomap.Config{Seed: 7})
	dist := Run(g, Config{P: 4, Seed: 7})
	rel := (dist.Codelength - seq.Codelength) / seq.Codelength
	if math.Abs(rel) > 0.02 {
		t.Errorf("distributed L = %.4f vs sequential %.4f (%.1f%% off)",
			dist.Codelength, seq.Codelength, 100*rel)
	}
	if dist.Codelength >= dist.InitialCodelength {
		t.Errorf("L did not improve: %.4f vs initial %.4f",
			dist.Codelength, dist.InitialCodelength)
	}
}

// TestReportedCodelengthIsExact: the MDL the distributed algorithm
// reports must equal a from-scratch evaluation of its final partition.
func TestReportedCodelengthIsExact(t *testing.T) {
	g, _ := planted(53, 600, 12, 0.2)
	for _, p := range []int{1, 2, 4, 8} {
		res := Run(g, Config{P: p, Seed: 11})
		l := infomap.CodelengthOf(g, res.Communities)
		if math.Abs(l-res.Codelength) > 1e-6 {
			t.Errorf("p=%d: reported L = %v, partition evaluates to %v", p, res.Codelength, l)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g, _ := planted(59, 500, 10, 0.2)
	a := Run(g, Config{P: 4, Seed: 13})
	b := Run(g, Config{P: 4, Seed: 13})
	if a.Codelength != b.Codelength || a.NumModules != b.NumModules {
		t.Fatalf("same seed differs: L %v/%v, k %d/%d",
			a.Codelength, b.Codelength, a.NumModules, b.NumModules)
	}
	for u := range a.Communities {
		if a.Communities[u] != b.Communities[u] {
			t.Fatalf("assignments differ at %d", u)
		}
	}
}

func TestInitialCodelengthMatchesSequential(t *testing.T) {
	g, _ := planted(61, 400, 8, 0.2)
	seq := infomap.Run(g, infomap.Config{Seed: 1})
	dist := Run(g, Config{P: 3, Seed: 1})
	if math.Abs(seq.InitialCodelength-dist.InitialCodelength) > 1e-9 {
		t.Fatalf("initial L differs: seq %v, dist %v",
			seq.InitialCodelength, dist.InitialCodelength)
	}
}

func TestMergeRateShape(t *testing.T) {
	g, _ := planted(67, 800, 16, 0.15)
	res := Run(g, Config{P: 4, Seed: 3})
	if len(res.MergeRate) != res.OuterIterations {
		t.Fatalf("MergeRate entries %d != OuterIterations %d",
			len(res.MergeRate), res.OuterIterations)
	}
	// The paper observes ~50% or more merged after the delegate stage.
	if res.MergeRate[0] < 0.4 {
		t.Errorf("stage-1 merge rate = %.2f, want >= 0.4", res.MergeRate[0])
	}
	for i, r := range res.MergeRate {
		if r < 0 || r > 1 {
			t.Errorf("merge rate[%d] = %v out of range", i, r)
		}
	}
}

func TestPhaseAccountingPopulated(t *testing.T) {
	g, _ := planted(71, 600, 12, 0.2)
	res := Run(g, Config{P: 4, Seed: 5})
	if res.PhaseModeled[obs.PhaseFindBestModule.Name()] <= 0 {
		t.Error("FindBestModule modeled time missing")
	}
	if res.PhaseModeled[obs.PhaseSwapBoundary.Name()] <= 0 {
		t.Error("SwapBoundaryInfo modeled time missing")
	}
	// Figure 8's Other bucket is the two refresh rounds; the round-2
	// payloads carry the MDL reduction and the move vote, so no span is
	// named Other.
	for _, ph := range []string{obs.PhaseRefreshRound1.Name(), obs.PhaseRefreshRound2.Name()} {
		if res.PhaseModeled[ph] <= 0 {
			t.Errorf("%s modeled time missing", ph)
		}
	}
	if _, ok := res.PhaseModeled["Other"]; ok {
		t.Error("PhaseModeled has an Other phase")
	}
	if res.Stage1Modeled <= 0 || res.Stage2Modeled <= 0 {
		t.Errorf("stage modeled times: %v / %v", res.Stage1Modeled, res.Stage2Modeled)
	}
	if res.DeltaEvaluations <= 0 {
		t.Error("DeltaEvaluations not counted")
	}
	if res.MaxRankBytes <= 0 {
		t.Error("MaxRankBytes not counted")
	}
	if len(res.CommStats) != 4 {
		t.Errorf("CommStats has %d entries, want 4", len(res.CommStats))
	}
}

func TestDelegatesUsedOnHubGraph(t *testing.T) {
	// Star + communities: the hub must be delegated with threshold p.
	g := gen.PowerLawGraph(73, 2000, 2.0, 2, 400)
	res := Run(g, Config{P: 8, Seed: 1})
	if res.Partition.NumHubs == 0 {
		t.Fatal("no delegates on a power-law graph with threshold p=8")
	}
	if res.PhaseModeled[obs.PhaseBcastDelegates.Name()] <= 0 {
		t.Error("BroadcastDelegates modeled time missing despite hubs")
	}
}

func TestDedupReducesTraffic(t *testing.T) {
	g, _ := planted(79, 800, 16, 0.2)
	withDedup := Run(g, Config{P: 4, Seed: 9})
	noDedup := Run(g, Config{P: 4, Seed: 9, NoDedup: true})
	if noDedup.MaxRankBytes <= withDedup.MaxRankBytes {
		t.Errorf("dedup did not reduce traffic: %d (dedup) vs %d (no dedup)",
			withDedup.MaxRankBytes, noDedup.MaxRankBytes)
	}
	// Quality must not degrade: dedup is purely a wire optimization.
	if math.Abs(noDedup.Codelength-infomap.CodelengthOf(g, noDedup.Communities)) > 1e-6 {
		t.Error("NoDedup run reports inconsistent codelength")
	}
}

func TestMinLabelAblationStillTerminates(t *testing.T) {
	g, _ := planted(83, 400, 8, 0.25)
	res := Run(g, Config{P: 4, Seed: 3, NoMinLabel: true, MaxSweeps: 30})
	// Without the anti-bouncing rule the sweep cap may bind, but the
	// run must terminate and produce a valid partition.
	if len(res.Communities) != g.NumVertices() {
		t.Fatal("no partition produced")
	}
	l := infomap.CodelengthOf(g, res.Communities)
	if math.Abs(l-res.Codelength) > 1e-6 {
		t.Errorf("reported L inconsistent under ablation: %v vs %v", res.Codelength, l)
	}
}

func TestManyRanksSmallGraph(t *testing.T) {
	// More ranks than useful: correctness must hold even when some
	// ranks own almost nothing.
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	res := Run(g, Config{P: 6, Seed: 2})
	if res.NumModules != 2 {
		t.Fatalf("NumModules = %d, want 2", res.NumModules)
	}
}

func TestScalingRanksPreservesQuality(t *testing.T) {
	g, truth := planted(89, 1200, 24, 0.15)
	for _, p := range []int{2, 8, 16} {
		res := Run(g, Config{P: p, Seed: 17})
		nmi := metrics.NMI(res.Communities, truth)
		if nmi < 0.85 {
			t.Errorf("p=%d: NMI = %.3f, want >= 0.85", p, nmi)
		}
	}
}

func TestCommunitiesDense(t *testing.T) {
	g, _ := planted(97, 300, 6, 0.2)
	res := Run(g, Config{P: 4, Seed: 19})
	seen := make([]bool, res.NumModules)
	for _, c := range res.Communities {
		if c < 0 || c >= res.NumModules {
			t.Fatalf("community %d out of [0,%d)", c, res.NumModules)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("community %d unused", c)
		}
	}
}

func TestMDLTraceNonIncreasingAfterStage1(t *testing.T) {
	g, _ := planted(101, 800, 16, 0.2)
	res := Run(g, Config{P: 4, Seed: 23})
	for i := 1; i < len(res.MDLTrace); i++ {
		if res.MDLTrace[i] > res.MDLTrace[i-1]+1e-9 {
			t.Errorf("MDL rose between outer iterations %d and %d: %v -> %v",
				i-1, i, res.MDLTrace[i-1], res.MDLTrace[i])
		}
	}
}

func TestDisconnectedGraphMultiRank(t *testing.T) {
	g := graph.FromEdges(9, [][2]int{
		{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8},
	})
	res := Run(g, Config{P: 3, Seed: 2})
	c := res.Communities
	if c[0] == c[3] || c[3] == c[6] || c[0] == c[6] {
		t.Fatalf("disconnected components merged: %v", c)
	}
}
