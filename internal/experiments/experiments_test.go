package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dinfomap/internal/gen"
)

// Small scale keeps the full-suite runtime reasonable while still
// exercising every experiment end to end.
var testOpts = Options{Scale: 0.15, Seed: 1}

func TestTable1(t *testing.T) {
	rows, err := RunTable1(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	var buf bytes.Buffer
	FormatTable1(&buf, rows)
	for _, name := range []string{"Amazon", "UK-2007", "Friendster"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("Table 1 output missing %s", name)
		}
	}
}

func TestFig4ConvergenceShape(t *testing.T) {
	rs, err := RunFig4(testOpts, 4, []string{"amazon", "dblp"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Sequential) == 0 || len(r.Distributed) == 0 {
			t.Fatalf("%s: empty traces", r.Dataset)
		}
		// The headline Figure 4 claim: converged MDL within a few
		// percent of the sequential algorithm.
		if r.RelGap > 0.03 || r.RelGap < -0.03 {
			t.Errorf("%s: relative MDL gap %.2f%% too large", r.Dataset, 100*r.RelGap)
		}
	}
	var buf bytes.Buffer
	FormatFig4(&buf, rs)
	if !strings.Contains(buf.String(), "amazon") {
		t.Error("Figure 4 output missing dataset name")
	}
}

func TestFig5MergeRateShape(t *testing.T) {
	rs, err := RunFig5(testOpts, 4, []string{"amazon"})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	// Paper: after the delegate stage the merge rate is around 50%+.
	if r.Distributed[0] < 0.4 {
		t.Errorf("distributed first-iteration merge rate %.2f, want >= 0.4", r.Distributed[0])
	}
	if r.Sequential[0] < 0.4 {
		t.Errorf("sequential first-iteration merge rate %.2f, want >= 0.4", r.Sequential[0])
	}
}

func TestTable2Quality(t *testing.T) {
	rows, err := RunTable2(testOpts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (dblp, amazon)", len(rows))
	}
	for _, r := range rows {
		// Paper reports ~0.8 for all three measures; allow slack for
		// the reduced scale.
		if r.Quality.NMI < 0.75 {
			t.Errorf("%s: NMI = %.2f, want >= 0.75", r.Dataset, r.Quality.NMI)
		}
	}
}

func TestBalanceFigures(t *testing.T) {
	rows, err := RunBalance(testOpts, []string{"uk-2005", "friendster"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Figure 6 claim: delegate partitioning compresses the edge
		// spread dramatically on hub-heavy graphs.
		if r.DelMaxEdges >= r.OneDMaxEdges {
			t.Errorf("%s p=%d: delegate max edges %d not better than 1D %d",
				r.Dataset, r.P, r.DelMaxEdges, r.OneDMaxEdges)
		}
		// Figure 7 claim: ghost spread is balanced too.
		if r.DelMaxGhosts > r.OneDMaxGhosts {
			t.Errorf("%s p=%d: delegate max ghosts %d worse than 1D %d",
				r.Dataset, r.P, r.DelMaxGhosts, r.OneDMaxGhosts)
		}
	}
	var buf bytes.Buffer
	FormatFig6(&buf, rows)
	FormatFig7(&buf, rows)
	if !strings.Contains(buf.String(), "uk-2005") {
		t.Error("balance output missing dataset")
	}
}

func TestFig8Breakdown(t *testing.T) {
	bs, err := RunFig8(testOpts, "uk-2005", []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns, want 2", len(bs))
	}
	for _, b := range bs {
		if b.Phases["FindBestModule"] <= 0 {
			t.Errorf("p=%d: FindBestModule time missing", b.P)
		}
	}
	// Figure 8 claim: FindBestModule shrinks with more processors.
	if bs[1].Phases["FindBestModule"] >= bs[0].Phases["FindBestModule"] {
		t.Errorf("FindBestModule did not shrink: p=4 %v, p=8 %v",
			bs[0].Phases["FindBestModule"], bs[1].Phases["FindBestModule"])
	}
}

func TestFig9Scalability(t *testing.T) {
	rows, err := RunFig9(testOpts, []string{"uk-2005"}, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9 claim: modeled time falls as p grows.
	if rows[1].Total >= rows[0].Total {
		t.Errorf("no scaling: p=2 %v, p=8 %v", rows[0].Total, rows[1].Total)
	}
}

func TestFig10Efficiency(t *testing.T) {
	rows, err := RunFig10(testOpts, []string{"amazon", "youtube"}, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Efficiency[0] != 1 {
			t.Errorf("%s: baseline efficiency %v, want 1", r.Dataset, r.Efficiency[0])
		}
		for i, e := range r.Efficiency {
			if e <= 0 || e > 2 {
				t.Errorf("%s: efficiency[%d] = %v out of range", r.Dataset, i, e)
			}
		}
	}
	// The compute-dominated dataset must keep healthy efficiency; the
	// paper reports >= ~65%. At 1/1000 scale the boundary-swap traffic
	// (constant in p, as the paper itself observes in Figure 8) weighs
	// ~1000x more against compute, so tiny datasets like amazon fall
	// below the paper's figures — see EXPERIMENTS.md.
	for _, r := range rows {
		if r.Dataset == "youtube" {
			// At this reduced test scale efficiency is bounded by the
			// constant-in-p boundary swap; assert it stays sane. The
			// scale-1.0 bench reproduces the paper-like curve.
			if last := r.Efficiency[len(r.Efficiency)-1]; last < 0.25 {
				t.Errorf("youtube efficiency at max p = %.2f, want >= 0.25", last)
			}
		}
	}
}

func TestTable3Speedup(t *testing.T) {
	rows, err := RunTable3(testOpts, []string{"ndweb", "uk-2005"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %v not computed", r.Dataset, r.Speedup)
		}
		// Our partition quality must stay comparable to the baseline's
		// (the paper's Table 3 point is time, not quality; on easy
		// planted graphs label propagation is competitive on L).
		if r.OursL > r.BaselineL*1.05 {
			t.Errorf("%s: ours L %.4f much worse than baseline %.4f",
				r.Dataset, r.OursL, r.BaselineL)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	rows, err := RunAblationDedup(testOpts, "amazon", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Bytes <= rows[0].Bytes {
		t.Errorf("dedup OFF bytes %d not larger than ON %d", rows[1].Bytes, rows[0].Bytes)
	}
	rows, err = RunAblationThreshold(testOpts, "uk-2005", 8)
	if err != nil {
		t.Fatal(err)
	}
	// No delegates (infinite threshold) must have a heavier max rank
	// than the paper default on a hub-heavy graph.
	if rows[3].MaxEdges <= rows[1].MaxEdges {
		t.Errorf("no-delegate max edges %d not heavier than default %d",
			rows[3].MaxEdges, rows[1].MaxEdges)
	}
	var buf bytes.Buffer
	FormatAblation(&buf, "threshold sweep", rows)
	if !strings.Contains(buf.String(), "d_high") {
		t.Error("ablation output malformed")
	}
}

func TestScaledDatasetLoads(t *testing.T) {
	for _, name := range []string{"amazon", "ndweb", "uk-2007"} {
		g, _, err := gen.Load(name, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s at scale 0.05 is empty", name)
		}
	}
	if _, _, err := gen.Load("bogus", testOpts.Scale, testOpts.Seed); err == nil {
		t.Error("gen.Load accepted bogus name")
	}
}

func TestRemainingAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	tiny := Options{Scale: 0.08, Seed: 2}
	if rows, err := RunAblationMinLabel(tiny, "dblp", 4); err != nil || len(rows) != 2 {
		t.Fatalf("min-label: %v %d", err, len(rows))
	}
	if rows, err := RunAblationRebalance(tiny, "uk-2005", 4); err != nil || len(rows) != 2 {
		t.Fatalf("rebalance: %v %d", err, len(rows))
	}
	if rows, err := RunAblationApproxDelegates(tiny, "youtube", 4); err != nil || len(rows) != 2 {
		t.Fatalf("approx: %v %d", err, len(rows))
	}
	rows, err := RunAblationDamping(tiny, "ndweb", 4)
	if err != nil || len(rows) != 2 {
		t.Fatalf("damping: %v %d", err, len(rows))
	}
	// Damping ON must not be worse than OFF on codelength (it exists to
	// prevent over-merging).
	if rows[0].Codelength > rows[1].Codelength*1.02 {
		t.Errorf("damping ON L %.4f worse than OFF %.4f",
			rows[0].Codelength, rows[1].Codelength)
	}
}

func TestFormatFunctionsRender(t *testing.T) {
	var buf bytes.Buffer
	FormatFig9(&buf, []ScalabilityRow{{Dataset: "x", P: 4, Stage1: 1, Stage2: 2, Total: 3}})
	FormatFig10(&buf, []EfficiencyRow{{Dataset: "x", BaselineP: 2, Ps: []int{2, 4}, Efficiency: []float64{1, 0.8}}})
	FormatTable3(&buf, []Table3Row{{Dataset: "x", P: 4, Speedup: 2}})
	FormatFig8(&buf, "x", nil)
	out := buf.String()
	for _, want := range []string{"Figure 9", "Figure 10", "Table 3", "Figure 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered output", want)
		}
	}
}

func TestBadDatasetErrors(t *testing.T) {
	if _, err := RunFig4(testOpts, 2, []string{"nope"}); err == nil {
		t.Error("RunFig4 accepted bad dataset")
	}
	if _, err := RunBalance(testOpts, []string{"nope"}, []int{2}); err == nil {
		t.Error("RunBalance accepted bad dataset")
	}
	if _, err := RunFig8(testOpts, "nope", nil); err == nil {
		t.Error("RunFig8 accepted bad dataset")
	}
	if _, err := RunTable3(testOpts, []string{"nope"}, 2); err == nil {
		t.Error("RunTable3 accepted bad dataset")
	}
	if _, err := RunAblationThreshold(testOpts, "nope", 2); err == nil {
		t.Error("RunAblationThreshold accepted bad dataset")
	}
}
