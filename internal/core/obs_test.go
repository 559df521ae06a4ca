package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dinfomap/internal/graph"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

// runJournaled runs a small deterministic graph with journaling on.
func runJournaled(t *testing.T, p int) (*obs.Journal, *Result, Config) {
	t.Helper()
	g, _ := planted(7, 400, 8, 0.2)
	j := obs.NewJournal(p)
	cfg := Config{P: p, Seed: 3, Journal: j}
	res := Run(g, cfg)
	return j, res, cfg
}

func TestJournalRecordsAllRanksAndPhases(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) { checkJournalAgainstCosts(t, p) })
	}
}

func checkJournalAgainstCosts(t *testing.T, p int) {
	j, res, _ := runJournaled(t, p)

	if res.NumModules < 2 {
		t.Fatalf("degenerate run: %d modules", res.NumModules)
	}
	for r := 0; r < p; r++ {
		evs := j.Rank(r).Events()
		if len(evs) == 0 {
			t.Fatalf("rank %d journaled no events", r)
		}
		// Per-rank timestamps must be monotone in emission order, and
		// every span must be well-formed.
		seen := map[obs.PhaseID]bool{}
		prev := evs[0].Start
		for i, ev := range evs {
			if ev.Start < prev {
				t.Fatalf("rank %d event %d starts at %v before previous start %v",
					r, i, ev.Start, prev)
			}
			prev = ev.Start
			if ev.End < ev.Start {
				t.Fatalf("rank %d event %d: End %v < Start %v", r, i, ev.End, ev.Start)
			}
			if ev.Stage != 1 && ev.Stage != 2 {
				t.Fatalf("rank %d event %d: bad stage %d", r, i, ev.Stage)
			}
			seen[ev.Phase] = true
		}
		for _, ph := range []obs.PhaseID{
			obs.PhaseFindBestModule, obs.PhaseBcastDelegates,
			obs.PhaseSwapBoundary, obs.PhaseRefreshRound1, obs.PhaseRefreshRound2,
		} {
			if !seen[ph] {
				t.Errorf("rank %d journal missing phase %s", r, ph.Name())
			}
		}
	}

	// The journal's per-iteration delta-L evals must sum to the run's
	// global count (the journal and the cost accounting measure the same
	// execution).
	var journaled int64
	for r := 0; r < p; r++ {
		for _, ev := range j.Rank(r).Events() {
			if ev.Phase == obs.PhaseFindBestModule {
				journaled += ev.Ops
			}
		}
	}
	if journaled != res.DeltaEvaluations {
		t.Fatalf("journaled evals %d != result DeltaEvaluations %d",
			journaled, res.DeltaEvaluations)
	}

	// Every span counter is the cost counter: per rank and phase, the
	// journal summed over both stages equals the stage-1 plus stage-2
	// cost tables (the first merge shuffle is journaled as stage 1 but
	// costed as stage 2, so only the sum over stages matches).
	for r := 0; r < p; r++ {
		var got PhaseCosts
		for _, ev := range j.Rank(r).Events() {
			got[ev.Phase].Add(trace.RankCost{Ops: ev.Ops, Msgs: ev.Msgs, Bytes: ev.Bytes})
		}
		for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
			want := res.Ranks[r].Phase[ph]
			want.Add(res.Ranks[r].Stage2Phase[ph])
			if got[ph] != want {
				t.Errorf("rank %d %s: journal %+v != costs %+v", r, ph.Name(), got[ph], want)
			}
		}
	}
}

func TestJournalChromeExportFromRealRun(t *testing.T) {
	const p = 3
	j, _, _ := runJournaled(t, p)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	rows := map[int]bool{}
	phases := map[string]bool{}
	lastTs := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				rows[ev.Tid] = true
			}
		case "X":
			phases[ev.Name] = true
			if ev.Ts < lastTs[ev.Tid] {
				t.Fatalf("tid %d timestamps not monotonic: %v after %v",
					ev.Tid, ev.Ts, lastTs[ev.Tid])
			}
			lastTs[ev.Tid] = ev.Ts
		}
	}
	if len(rows) != p {
		t.Fatalf("trace has %d timeline rows, want %d", len(rows), p)
	}
	for _, ph := range []string{
		obs.PhaseFindBestModule.Name(), obs.PhaseBcastDelegates.Name(),
		obs.PhaseSwapBoundary.Name(), obs.PhaseRefreshRound1.Name(), obs.PhaseRefreshRound2.Name(),
	} {
		if !phases[ph] {
			t.Errorf("trace missing %s spans", ph)
		}
	}
	if phases["Other"] {
		t.Error("trace has Other spans")
	}
}

// The run report's per-phase key sets: five stage-1 phases, and stage 2
// adds the merge shuffle.
var (
	stage1Names = []string{
		obs.PhaseBcastDelegates.Name(), obs.PhaseFindBestModule.Name(),
		obs.PhaseSwapBoundary.Name(), obs.PhaseRefreshRound1.Name(), obs.PhaseRefreshRound2.Name(),
	}
	stage2Names = []string{
		obs.PhaseBcastDelegates.Name(), obs.PhaseFindBestModule.Name(),
		obs.PhaseSwapBoundary.Name(), obs.PhaseMergeShuffle.Name(), obs.PhaseRefreshRound1.Name(),
		obs.PhaseRefreshRound2.Name(),
	}
)

func sortedKeys(m map[string]obs.PhaseCost) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestBuildReportFromRealRun(t *testing.T) {
	const p = 4
	_, res, cfg := runJournaled(t, p)
	g, _ := planted(7, 400, 8, 0.2)

	rep := BuildReport(cfg, res)
	if rep.Schema != obs.ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	checkGraphSection(t, "Run", rep, g)
	if len(rep.Convergence.MDLTrace) != len(res.MDLTrace) {
		t.Fatalf("report MDL trace %v != result %v", rep.Convergence.MDLTrace, res.MDLTrace)
	}
	if len(rep.Ranks) != p {
		t.Fatalf("report has %d ranks, want %d", len(rep.Ranks), p)
	}
	for r, rr := range rep.Ranks {
		if rr.Rank != r {
			t.Fatalf("rank %d slot holds rank %d", r, rr.Rank)
		}
		if got := sortedKeys(rr.Phases); !slices.Equal(got, stage1Names) {
			t.Fatalf("rank %d stage-1 phases %v, want %v", r, got, stage1Names)
		}
		if got := sortedKeys(rr.Stage2Phases); !slices.Equal(got, stage2Names) {
			t.Fatalf("rank %d stage-2 phases %v, want %v", r, got, stage2Names)
		}
		for ph := obs.PhaseID(0); ph < obs.PhaseMergeShuffle; ph++ {
			if c, want := rr.Phases[ph.Name()], res.Ranks[r].Phase[ph]; c != want {
				t.Fatalf("rank %d phase %s cost %+v != result %+v", r, ph.Name(), c, want)
			}
		}
		if want := res.Ranks[r].Stage2Phase.Total(); rr.Stage2 != want {
			t.Fatalf("rank %d stage-2 cost %+v != result total %+v", r, rr.Stage2, want)
		}
	}
	// JSON round trip through the public parser.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Quality.Codelength != res.Codelength {
		t.Fatalf("codelength %v lost in round trip (got %v)",
			res.Codelength, back.Quality.Codelength)
	}
	var minLabel [][2]obs.MinLabelCounts
	for _, a := range res.Ranks {
		minLabel = append(minLabel, a.MinLabel)
	}
	if got := back.Convergence.MinLabel; len(got) != p || !slices.Equal(got, minLabel) {
		t.Fatalf("minimum-label counts %v lost in round trip (got %v)", minLabel, got)
	}
	var returns int64
	for _, st := range minLabel {
		returns += st[0].RefusedReturns + st[1].RefusedReturns
	}
	if returns == 0 {
		t.Error("no rank refused a return; the return rule never fired at p = 4")
	}
}

// TestStageInternalSpansJournaled is the regression lock for the span
// split: the refresh rounds and the merge shuffle must appear as
// first-class spans.
func TestStageInternalSpansJournaled(t *testing.T) {
	const p = 4
	j, res, cfg := runJournaled(t, p)
	if res.OuterIterations < 2 {
		t.Fatalf("need a 2-level run to cover merge-shuffle, got %d outer iterations",
			res.OuterIterations)
	}

	for r := 0; r < p; r++ {
		seen := map[obs.PhaseID]bool{}
		for _, ev := range j.Rank(r).Events() {
			seen[ev.Phase] = true
			if ev.Phase == obs.PhaseMergeShuffle && ev.Iter != -1 {
				t.Errorf("rank %d merge-shuffle span has Iter %d, want -1", r, ev.Iter)
			}
		}
		for _, ph := range []obs.PhaseID{
			obs.PhaseRefreshRound1, obs.PhaseRefreshRound2, obs.PhaseMergeShuffle,
		} {
			if !seen[ph] {
				t.Errorf("rank %d journal missing %s span", r, ph.Name())
			}
		}
	}
	// The new spans flow through to the report: stage-2 phase breakdown
	// and measured per-phase walls.
	rep := BuildReport(cfg, res)
	if len(rep.Timing.PhaseWallNs) == 0 {
		t.Fatal("journaled run produced no Timing.PhaseWallNs")
	}
	for _, ph := range []string{obs.PhaseRefreshRound1.Name(), obs.PhaseRefreshRound2.Name(),
		obs.PhaseMergeShuffle.Name()} {
		if _, ok := rep.Timing.PhaseWallNs[ph]; !ok {
			t.Errorf("Timing.PhaseWallNs missing %s", ph)
		}
	}
	for r, rr := range rep.Ranks {
		if _, ok := rr.Stage2Phases[obs.PhaseMergeShuffle.Name()]; !ok {
			t.Errorf("rank %d report missing merge-shuffle in Stage2Phases", r)
		}
		if _, ok := rr.Phases[obs.PhaseRefreshRound1.Name()]; !ok {
			t.Errorf("rank %d report missing refresh-round1 in stage-1 Phases", r)
		}
		if len(rr.PhaseWallNs) == 0 {
			t.Errorf("rank %d report missing PhaseWallNs", r)
		}
	}
}

// checkGraphSection fails t unless the report's graph section is g's
// size and, bit for bit, its total weight.
func checkGraphSection(t *testing.T, run string, rep *obs.Report, g *graph.Graph) {
	t.Helper()
	got := rep.Graph
	if got.Vertices != g.NumVertices() || got.Edges != g.NumEdges() ||
		math.Float64bits(got.TotalWeight) != math.Float64bits(g.TotalWeight()) {
		t.Errorf("%s: report graph section %+v, want %d vertices, %d edges, total weight %v",
			run, got, g.NumVertices(), g.NumEdges(), g.TotalWeight())
	}
}

// TestBuildReportFromFileRun: a run whose ranks read the file reports
// the graph it never built: the one graph.ReadEdgeList builds from the
// same file.
// Its weights are irregular, so a total summed in another order would
// differ in the last bits.
func TestBuildReportFromFileRun(t *testing.T) {
	pg, _ := planted(7, 400, 8, 0.2)
	b := graph.NewBuilder(pg.NumVertices())
	pg.Edges(func(u, v int, _ float64) { b.AddWeightedEdge(u, v, 0.1+float64((u*31+v)%17)/7) })
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: 3, Seed: 3}
	res, err := RunFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphSection(t, "RunFile", BuildReport(cfg, res), g)
}

func TestRunWithoutJournalPublishesPerRankCosts(t *testing.T) {
	g, _ := planted(9, 300, 6, 0.2)
	res := Run(g, Config{P: 3, Seed: 5})
	if len(res.Ranks) != 3 {
		t.Fatalf("per-rank artifacts missing: %d", len(res.Ranks))
	}
	var evals int64
	for _, a := range res.Ranks {
		evals += a.Evals
	}
	if evals != res.DeltaEvaluations {
		t.Fatalf("per-rank evals %d != total %d", evals, res.DeltaEvaluations)
	}
}
