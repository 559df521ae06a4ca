package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

// TestRankJournalForeignRows: a rank-scoped journal allocates only its
// own row; emits to the other ranks' rows are dropped, not crashes.
func TestRankJournalForeignRows(t *testing.T) {
	j := NewRankJournal(2, 4, time.Now())
	j.Rank(2).Emit(Event{Stage: 1, Phase: PhaseID(1), Start: 1, End: 2})
	j.Rank(0).Emit(Event{Stage: 1})
	if n := j.NumEvents(); n != 1 {
		t.Errorf("foreign-row emit was counted: %d events", n)
	}
	if got := len(j.Rank(2).Events()); got != 1 {
		t.Errorf("own row holds %d events, want 1", got)
	}
}

// synthSection builds rank r's telemetry section with one event, one
// received p2p edge from rank src and one barrier passage.
func synthSection(r, src int) *RankTelemetry {
	base := time.Duration(10+r) * time.Millisecond
	return &RankTelemetry{
		Events: []Event{{
			Stage: 1, Phase: PhaseID(1),
			Start: base, End: base + time.Millisecond,
		}},
		P2P: []mpi.P2PEvent{{
			Src: src, Tag: 5, Bytes: 32,
			SentAt:    base - time.Millisecond,
			RecvStart: base,
			RecvEnd:   base + 200*time.Microsecond,
		}},
		Barriers: []mpi.BarrierEvent{{
			Arrive:  base + 2*time.Millisecond,
			Release: base + 3*time.Millisecond,
		}},
	}
}

// TestMergeTelemetry: every rank's events, p2p records and barriers
// land on that rank's row unchanged, and a nil section (a rank that
// shipped none) leaves an empty row.
func TestMergeTelemetry(t *testing.T) {
	const p = 4
	sections := make([]*RankTelemetry, p)
	for r := 0; r < p; r++ {
		sections[r] = synthSection(r, (r+1)%p)
	}
	j := MergeTelemetry(p, time.Now(), sections)
	rec := j.Recorder()
	for r := 0; r < p; r++ {
		sec := sections[r]
		if got := j.Rank(r).Events(); len(got) != 1 || got[0] != sec.Events[0] {
			t.Errorf("rank %d events = %+v, want %+v", r, got, sec.Events)
		}
		if got := rec.P2P(r); len(got) != 1 || got[0] != sec.P2P[0] {
			t.Errorf("rank %d p2p = %+v, want %+v", r, got, sec.P2P)
		}
		if got := rec.Barriers(r); len(got) != 1 || got[0] != sec.Barriers[0] {
			t.Errorf("rank %d barriers = %+v, want %+v", r, got, sec.Barriers)
		}
	}
	sections[2] = nil
	j2 := MergeTelemetry(p, time.Now(), sections)
	rec2 := j2.Recorder()
	if n := len(j2.Rank(2).Events()) + len(rec2.P2P(2)) + len(rec2.Barriers(2)); n != 0 {
		t.Errorf("nil section produced %d records", n)
	}
}

// TestMergedTraceGolden renders a merged 4-rank telemetry set to a
// Chrome trace and checks the structural contract the acceptance
// criteria name: one thread row per rank and cross-process flow arrows
// (a start on the sender's row, a finish on the receiver's).
func TestMergedTraceGolden(t *testing.T) {
	const p = 4
	sections := make([]*RankTelemetry, p)
	for r := 0; r < p; r++ {
		sections[r] = synthSection(r, (r+1)%p)
	}
	j := MergeTelemetry(p, time.Now(), sections)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	rows := map[int]string{}
	flowStartRows := map[int]bool{}
	flowFinishRows := map[int]bool{}
	starts, finishes := map[string]bool{}, map[string]bool{}
	spans := 0
	for _, e := range tr.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			rows[e.Tid], _ = e.Args["name"].(string)
		case e.Ph == "X":
			spans++
		case e.Ph == "s":
			starts[e.ID] = true
			flowStartRows[e.Tid] = true
		case e.Ph == "f":
			finishes[e.ID] = true
			flowFinishRows[e.Tid] = true
		}
	}
	if len(rows) != p {
		t.Fatalf("trace has %d thread rows, want %d: %v", len(rows), p, rows)
	}
	for r := 0; r < p; r++ {
		if rows[r] == "" {
			t.Errorf("rank %d has no named row", r)
		}
	}
	if spans != p {
		t.Errorf("trace has %d spans, want %d (one event per rank)", spans, p)
	}
	if len(starts) != p || len(finishes) != p {
		t.Fatalf("trace has %d flow starts / %d finishes, want %d each", len(starts), len(finishes), p)
	}
	for id := range starts {
		if !finishes[id] {
			t.Errorf("flow %s starts but never finishes", id)
		}
	}
	// Each rank receives from (r+1)%p, so every row both sends and
	// receives at least one arrow — the "cross-process" part.
	for r := 0; r < p; r++ {
		if !flowStartRows[r] {
			t.Errorf("rank %d row emits no flow start", r)
		}
		if !flowFinishRows[r] {
			t.Errorf("rank %d row receives no flow finish", r)
		}
	}
}
