package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

func TestNilJournalIsValidSink(t *testing.T) {
	var j *Journal
	if j.NumRanks() != 0 {
		t.Fatalf("nil journal NumRanks = %d", j.NumRanks())
	}
	rl := j.Rank(0)
	if rl != nil {
		t.Fatalf("nil journal Rank(0) = %v, want nil", rl)
	}
	// All of these must be no-ops, not panics.
	rl.Emit(Event{Phase: PhaseRefreshRound2})
	if rl.Now() != 0 {
		t.Fatalf("nil log Now = %v, want 0", rl.Now())
	}
	if rl.Events() != nil {
		t.Fatalf("nil log Events = %v, want nil", rl.Events())
	}
}

func TestJournalRankIsolationAndOrder(t *testing.T) {
	j := NewJournal(3)
	if j.NumRanks() != 3 {
		t.Fatalf("NumRanks = %d, want 3", j.NumRanks())
	}
	j.Rank(1).Emit(Event{Phase: PhaseFindBestModule, Iter: 0, Start: 1, End: 2})
	j.Rank(1).Emit(Event{Phase: PhaseRefreshRound2, Iter: 0, Start: 2, End: 5})
	j.Rank(2).Emit(Event{Phase: PhaseSwapBoundary, Iter: 0, Start: 1, End: 4})
	if n := len(j.Rank(0).Events()); n != 0 {
		t.Fatalf("rank 0 has %d events, want 0", n)
	}
	evs := j.Rank(1).Events()
	if len(evs) != 2 || evs[0].Phase != PhaseFindBestModule || evs[1].Phase != PhaseRefreshRound2 {
		t.Fatalf("rank 1 events out of order: %+v", evs)
	}
	if j.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", j.NumEvents())
	}
	if j.Rank(-1) != nil || j.Rank(3) != nil {
		t.Fatal("out-of-range Rank must return nil")
	}
}

func TestPhaseNames(t *testing.T) {
	want := [NumPhases]string{
		"FindBestModule", "BroadcastDelegates", "SwapBoundaryInfo",
		"refresh-round1", "refresh-round2", "merge-shuffle",
	}
	for p := PhaseID(0); p < NumPhases; p++ {
		if got := p.Name(); got != want[p] {
			t.Fatalf("PhaseID(%d).Name() = %q, want %q", p, got, want[p])
		}
	}
	if got := PhaseID(200).Name(); got != "Unknown" {
		t.Fatalf("invalid phase Name = %q", got)
	}
}

func TestPhaseWall(t *testing.T) {
	j := NewJournal(1)
	j.Rank(0).Emit(Event{Phase: PhaseFindBestModule, Start: 0, End: 3 * time.Millisecond})
	j.Rank(0).Emit(Event{Phase: PhaseFindBestModule, Start: 5 * time.Millisecond, End: 6 * time.Millisecond})
	j.Rank(0).Emit(Event{Phase: PhaseRefreshRound2, Start: 6 * time.Millisecond, End: 7 * time.Millisecond})
	w := j.PhaseWall(0)
	if w["FindBestModule"] != 4*time.Millisecond {
		t.Fatalf("FindBestModule wall = %v, want 4ms", w["FindBestModule"])
	}
	if w["refresh-round2"] != time.Millisecond {
		t.Fatalf("refresh-round2 wall = %v, want 1ms", w["refresh-round2"])
	}
}

// chromeDoc mirrors the trace-event envelope for test parsing.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTraceStructure(t *testing.T) {
	j := NewJournal(2)
	j.Rank(0).Emit(Event{Stage: 1, Iter: -1, Phase: PhaseRefreshRound2, Start: 0, End: time.Millisecond})
	j.Rank(0).Emit(Event{Stage: 1, Iter: 0, Phase: PhaseFindBestModule,
		Start: time.Millisecond, End: 2 * time.Millisecond, Moves: 7, Ops: 40})
	j.Rank(1).Emit(Event{Stage: 2, Outer: 1, Iter: 0, Phase: PhaseSwapBoundary,
		Start: time.Millisecond, End: 3 * time.Millisecond, Msgs: 2, Bytes: 64})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}

	threads := map[int]bool{}
	spansPerTid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.Tid] = true
			}
		case "X":
			spansPerTid[ev.Tid]++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur in %+v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if !threads[0] || !threads[1] {
		t.Fatalf("missing thread_name rows: %v", threads)
	}
	if spansPerTid[0] != 2 || spansPerTid[1] != 1 {
		t.Fatalf("span counts per tid = %v", spansPerTid)
	}
	// Span args carry the counters.
	var sawMoves bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "FindBestModule" {
			if ev.Args["moves"] == float64(7) && ev.Args["ops"] == float64(40) {
				sawMoves = true
			}
		}
	}
	if !sawMoves {
		t.Fatalf("FindBestModule span lost its counters:\n%s", buf.String())
	}
}

func TestWriteChromeTraceNilJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err == nil {
		t.Fatal("want error for nil journal")
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema: ReportSchema,
		Graph:  GraphInfo{Vertices: 100, Edges: 300, TotalWeight: 300},
		Config: ConfigInfo{P: 4, Seed: 7, Theta: 1e-10},
		Quality: QualityInfo{
			Codelength: 5.25, InitialCodelength: 7.5, NumModules: 12,
		},
		Convergence: ConvergenceInfo{
			MDLTrace:        []float64{6.0, 5.5, 5.25},
			MergeRate:       []float64{0.8, 0.1, 0.0},
			OuterIterations: 3, Stage1Sweeps: 9, Stage2Sweeps: 4,
		},
		Timing: TimingInfo{
			Stage1ModeledNs: 1000, Stage2ModeledNs: 400, TotalModeledNs: 1400,
			PhaseModeledNs: map[string]int64{"FindBestModule": 700},
		},
		Partition:        PartitionInfo{NumHubs: 3, MaxEdges: 90, EdgeImbalance: 1.2},
		MaxRankBytes:     4096,
		DeltaEvaluations: 12345,
		Ranks: []RankReport{{
			Rank: 0,
			Phases: map[string]PhaseCost{
				"FindBestModule":   {Ops: 100, Msgs: 0, Bytes: 0},
				"SwapBoundaryInfo": {Ops: 10, Msgs: 4, Bytes: 256},
			},
			Stage2:     PhaseCost{Ops: 20, Msgs: 2, Bytes: 64},
			DeltaEvals: 100,
			Comm:       mpi.KindStats{MsgsSent: 6, BytesSent: 320},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The wire format must expose the documented key names.
	for _, key := range []string{
		`"schema"`, `"mdl_trace"`, `"phase_modeled_ns"`, `"ops"`, `"msgs"`,
		`"bytes"`, `"wall1_ns"`, `"edge_imbalance"`, `"delta_evals"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("serialized report missing %s:\n%s", key, buf.String())
		}
	}
	back, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("round trip changed the report:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestParseReportRejectsWrongSchema(t *testing.T) {
	if _, err := ParseReport([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("want schema error")
	}
	if _, err := ParseReport([]byte(`{garbage`)); err == nil {
		t.Fatal("want parse error")
	}
}
