package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

// decodeTrace parses WriteChromeTrace output back into its event
// list for structural assertions.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []chromeEvent {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tr.TraceEvents
}

// TestChromeTraceWaitOverlays checks the recorder-fed additions: one
// flow start/finish pair per matched frame (bound by a shared id,
// sender row to receiver row) and a "blocked ranks" counter track that
// steps through the barrier windows only and never goes negative.
func TestChromeTraceWaitOverlays(t *testing.T) {
	j := NewJournal(2)
	rec := j.Recorder()
	j.Rank(0).Emit(Event{Phase: PhaseRefreshRound2, Start: 0, End: 400})
	j.Rank(1).Emit(Event{Phase: PhaseRefreshRound2, Start: 0, End: 400})

	// Rank 1 receives a message rank 0 sent at t=50; the receive blocks
	// from 30 to 120 (late sender). Both ranks then sync: rank 1 waits
	// from 150, rank 0 arrives at 200, release at 210.
	rec.AddP2P(1, mpi.P2PEvent{
		Src: 0, Tag: 7, Kind: mpi.KindGhostUpdate, Bytes: 64,
		SentAt: 50, RecvStart: 30, RecvEnd: 120,
	})
	rec.AddBarrier(0, mpi.BarrierEvent{Arrive: 200, Release: 210})
	rec.AddBarrier(1, mpi.BarrierEvent{Arrive: 150, Release: 210})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)

	var starts, finishes []chromeEvent
	for _, e := range evs {
		switch e.Ph {
		case "s":
			starts = append(starts, e)
		case "f":
			finishes = append(finishes, e)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("flow events: %d starts, %d finishes, want 1 each", len(starts), len(finishes))
	}
	s, f := starts[0], finishes[0]
	if s.ID == "" || s.ID != f.ID {
		t.Errorf("flow ids not bound: start %q, finish %q", s.ID, f.ID)
	}
	if s.Tid != 0 || f.Tid != 1 {
		t.Errorf("flow rows: start tid %d (want sender 0), finish tid %d (want receiver 1)", s.Tid, f.Tid)
	}
	if s.Ts != usec(50) || f.Ts != usec(120) {
		t.Errorf("flow stamps: start %v finish %v, want send 0.05 / recv-end 0.12", s.Ts, f.Ts)
	}
	if f.BP != "e" {
		t.Errorf("flow finish binding point %q, want \"e\" (enclosing slice)", f.BP)
	}

	// Counter track: the blocked frame wait [30,120) draws an arrow but
	// no counter step; barrier waits [150,210) and [200,210) overlap
	// each other. The running count must match at every change point
	// and end at zero.
	type sample struct {
		ts      float64
		blocked int
	}
	var got []sample
	for _, e := range evs {
		if e.Ph != "C" {
			continue
		}
		if e.Name != "blocked ranks" {
			t.Fatalf("unexpected counter track %q", e.Name)
		}
		got = append(got, sample{e.Ts, int(e.Args["blocked"].(float64))})
	}
	want := []sample{
		{usec(150), 1}, {usec(200), 2}, {usec(210), 1}, {usec(210), 0},
	}
	if len(got) != len(want) {
		t.Fatalf("counter samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter sample %d = %+v, want %+v", i, got[i], want[i])
		}
		if got[i].blocked < 0 {
			t.Errorf("counter sample %d negative: %+v", i, got[i])
		}
	}
}

// TestBlockedCounterCountsEachRankOnce: a collective's frame waits lie
// inside the same rank's barrier window, as on a proc run, so the
// "blocked ranks" counter never exceeds the number of ranks in a
// window: here one.
func TestBlockedCounterCountsEachRankOnce(t *testing.T) {
	j := NewJournal(2)
	rec := j.Recorder()
	rec.AddBarrier(1, mpi.BarrierEvent{Arrive: 100, Release: 300})
	rec.AddP2P(1, mpi.P2PEvent{Src: 0, SentAt: 180, RecvStart: 120, RecvEnd: 180})
	rec.AddP2P(1, mpi.P2PEvent{Src: 0, SentAt: 250, RecvStart: 200, RecvEnd: 250})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, e := range decodeTrace(t, &buf) {
		if e.Ph == "C" {
			got = append(got, int(e.Args["blocked"].(float64)))
		}
	}
	if want := []int{1, 0}; !slices.Equal(got, want) {
		t.Errorf("blocked ranks samples = %v, want %v", got, want)
	}
}

// TestChromeTraceNilRecorder: a journal whose recorder holds no events
// gives a trace with no flow or counter events, only the spans.
func TestChromeTraceNilRecorder(t *testing.T) {
	j := NewJournal(1)
	j.Rank(0).Emit(Event{Phase: PhaseRefreshRound2, Start: 0, End: time.Duration(100)})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, &buf) {
		if e.Ph == "s" || e.Ph == "f" || e.Ph == "C" {
			t.Errorf("unexpected overlay event without recorder: %+v", e)
		}
	}
}
