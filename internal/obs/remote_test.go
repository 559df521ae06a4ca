package obs

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

// TestStreamEventCodecRoundTrip pins the wire format: every field
// survives, including negative Iter (the setup-refresh sentinel) and
// the full range of the 64-bit counters.
func TestStreamEventCodecRoundTrip(t *testing.T) {
	in := StreamEvent{
		Rank: 3, Seq: 12345,
		Event: Event{
			Stage: 2, Outer: 7, Iter: -1, Phase: PhaseID(4),
			Start: 123456789 * time.Nanosecond, End: 987654321 * time.Nanosecond,
			Moves: -5, Deferred: 11,
			Ops: 1 << 40, Msgs: 42, WaitNs: 7_000_000, Bytes: 1 << 33,
		},
	}
	b := EncodeStreamEvent(in)
	if len(b) != streamEventWire {
		t.Fatalf("encoded size = %d, want %d", len(b), streamEventWire)
	}
	out, err := DecodeStreamEvent(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the event:\n in: %+v\nout: %+v", in, out)
	}
	if _, err := DecodeStreamEvent(b[:streamEventWire-1]); err == nil {
		t.Error("short payload decoded without error")
	}
}

// TestRankJournalStatus: a rank-scoped journal (only one row allocated)
// must serve Status for all p ranks without panicking, with the foreign
// rows empty.
func TestRankJournalStatus(t *testing.T) {
	j := NewRankJournal(2, 4, time.Now())
	j.Rank(2).Emit(Event{Stage: 1, Phase: PhaseID(1), Start: 1, End: 2})
	st := j.Status()
	if len(st.Ranks) != 4 {
		t.Fatalf("status has %d ranks, want 4", len(st.Ranks))
	}
	for r, rs := range st.Ranks {
		if rs.Rank != r {
			t.Errorf("rank slot %d reports rank %d", r, rs.Rank)
		}
		want := int64(0)
		if r == 2 {
			want = 1
		}
		if rs.Events != want {
			t.Errorf("rank %d events = %d, want %d", r, rs.Events, want)
		}
	}
	// Emits to foreign rows are dropped, not crashes.
	j.Rank(0).Emit(Event{Stage: 1})
	if n := j.NumEvents(); n != 1 {
		t.Errorf("foreign-row emit was counted: %d events", n)
	}
}

// TestRelayCollectorEndToEnd wires a child journal to a parent
// collector over a real TCP uplink: live events must land in the
// parent's journal, the final section must arrive lossless, and Merge
// must rebuild the rank's events and recorder records.
func TestRelayCollectorEndToEnd(t *testing.T) {
	const p = 2
	epoch := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	//dinfomap:close-ok test listener
	defer ln.Close()

	parentJ := NewJournalAt(p, epoch)
	coll := NewCollector(p, parentJ, nil)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		peer, err := mpi.AcceptUplink(conn, p, epoch, "", time.Second)
		if err != nil {
			served <- err
			return
		}
		err = peer.Serve(coll, time.Millisecond)
		peer.Close()
		served <- err
	}()

	// Child side: rank 1 journals a few events, records wait events,
	// then flushes the final section — the same sequence runChildRank
	// performs.
	childJ := NewRankJournal(1, p, epoch)
	rec := mpi.NewRecorder(p, epoch)
	up, err := mpi.DialUplink("tcp", ln.Addr().String(), mpi.UplinkConfig{
		Rank: 1, Size: p, Epoch: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay := StartRelay(childJ, 1, up, nil, time.Millisecond)
	for i := 0; i < 5; i++ {
		childJ.Rank(1).Emit(Event{
			Stage: 1, Iter: int32(i), Phase: PhaseID(1),
			Start: time.Duration(i) * time.Millisecond,
			End:   time.Duration(i)*time.Millisecond + 500*time.Microsecond,
		})
	}
	rec.AddP2P(1, mpi.P2PEvent{Src: 0, Tag: 9, Bytes: 64, SentAt: 1 * time.Millisecond, RecvStart: 2 * time.Millisecond, RecvEnd: 3 * time.Millisecond})
	rec.AddBarrier(1, mpi.BarrierEvent{Arrive: 4 * time.Millisecond, Release: 5 * time.Millisecond})
	// The parent pings on its own cadence; under load the child could
	// finish and close the uplink before the first ping/pong round trip
	// completes. Wait for one clock sample (bounded) so the assertion
	// below tests the estimator, not the scheduler.
	for deadline := time.Now().Add(10 * time.Second); coll.Clocks()[1].Samples == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	childJ.Finish()
	relay.Wait()
	tel := CaptureTelemetry(childJ, 1, rec, &mpi.TransportStats{Network: "tcp"}, up.Drops())
	if err := SendTelemetry(up, tel); err != nil {
		t.Fatalf("SendTelemetry: %v", err)
	}
	up.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Live flow reached the parent journal (timestamps may be shifted by
	// the running clock estimate; the count is the live contract).
	if got := parentJ.Rank(1).Events(); len(got) != 5 {
		t.Errorf("parent journal holds %d live events, want 5", len(got))
	}
	secs := coll.Sections()
	if secs[1] == nil {
		t.Fatal("rank 1 section never arrived")
	}
	if secs[1].Transport == nil || secs[1].Transport.Network != "tcp" {
		t.Errorf("section transport = %+v", secs[1].Transport)
	}
	clocks := coll.Clocks()
	if clocks[1].Samples == 0 {
		t.Error("no clock samples for rank 1")
	}

	merged, mrec := coll.Merge(epoch)
	if !merged.Finished() {
		t.Error("merged journal is not finished")
	}
	if got := merged.Rank(1).Events(); len(got) != 5 {
		t.Errorf("merged journal holds %d events, want 5", len(got))
	}
	if got := mrec.P2P(1); len(got) != 1 {
		t.Errorf("merged recorder holds %d p2p events, want 1", len(got))
	}
	if got := mrec.Barriers(1); len(got) != 1 {
		t.Errorf("merged recorder holds %d barriers, want 1", len(got))
	}
}

// synthSection builds rank r's telemetry section with one event and one
// received p2p edge from rank src, all stamped on rank r's own skewed
// clock.
func synthSection(r, src int, skew time.Duration, srcSkew time.Duration) *RankTelemetry {
	base := time.Duration(10+r) * time.Millisecond
	return &RankTelemetry{
		Rank: r,
		Events: []Event{{
			Stage: 1, Phase: PhaseID(1),
			Start: base + skew, End: base + skew + time.Millisecond,
		}},
		P2P: []mpi.P2PEvent{{
			Src: src, Tag: 5, Bytes: 32,
			SentAt:    base + srcSkew - time.Millisecond, // stamped on the sender's clock
			RecvStart: base + skew,
			RecvEnd:   base + skew + 200*time.Microsecond,
		}},
		Barriers: []mpi.BarrierEvent{{
			Arrive:  base + skew + 2*time.Millisecond,
			Release: base + skew + 3*time.Millisecond,
		}},
	}
}

// TestMergeTelemetryAlignment: ranks with known synthetic clock skews
// (r ms for rank r) merge onto one timeline — every timestamp loses
// exactly its rank's offset, durations survive untouched, and a p2p
// SentAt is corrected by the sender's offset, not the receiver's.
func TestMergeTelemetryAlignment(t *testing.T) {
	const p = 4
	sections := make([]*RankTelemetry, p)
	clocks := make([]ClockEstimate, p)
	skew := func(r int) time.Duration { return time.Duration(r) * time.Millisecond }
	for r := 0; r < p; r++ {
		src := (r + 1) % p
		sections[r] = synthSection(r, src, skew(r), skew(src))
		clocks[r] = ClockEstimate{Rank: r, OffsetNs: skew(r).Nanoseconds(), Samples: 1}
	}
	j, rec := MergeTelemetry(p, time.Now(), sections, clocks)
	for r := 0; r < p; r++ {
		base := time.Duration(10+r) * time.Millisecond
		evs := j.Rank(r).Events()
		if len(evs) != 1 {
			t.Fatalf("rank %d: %d merged events", r, len(evs))
		}
		if evs[0].Start != base {
			t.Errorf("rank %d event start = %v, want %v (skew removed)", r, evs[0].Start, base)
		}
		if d := evs[0].Dur(); d != time.Millisecond {
			t.Errorf("rank %d event duration changed to %v", r, d)
		}
		pes := rec.P2P(r)
		if len(pes) != 1 {
			t.Fatalf("rank %d: %d merged p2p events", r, len(pes))
		}
		if want := base - time.Millisecond; pes[0].SentAt != want {
			t.Errorf("rank %d SentAt = %v, want %v (sender's offset removed)", r, pes[0].SentAt, want)
		}
		if pes[0].RecvStart != base {
			t.Errorf("rank %d RecvStart = %v, want %v", r, pes[0].RecvStart, base)
		}
		bes := rec.Barriers(r)
		if len(bes) != 1 || bes[0].Arrive != base+2*time.Millisecond {
			t.Errorf("rank %d barriers misaligned: %+v", r, bes)
		}
	}
	// A dead rank (nil section) leaves an empty row, not a crash.
	sections[2] = nil
	j2, _ := MergeTelemetry(p, time.Now(), sections, clocks)
	if got := j2.Rank(2).Events(); len(got) != 0 {
		t.Errorf("nil section produced %d events", len(got))
	}
}

// TestMergedTraceGolden renders a merged 4-rank telemetry set to a
// Chrome trace and checks the structural contract the acceptance
// criteria name: one thread row per rank and cross-process flow arrows
// (a start on the sender's row, a finish on the receiver's).
func TestMergedTraceGolden(t *testing.T) {
	const p = 4
	sections := make([]*RankTelemetry, p)
	clocks := make([]ClockEstimate, p)
	for r := 0; r < p; r++ {
		src := (r + 1) % p
		sections[r] = synthSection(r, src, 0, 0)
		clocks[r] = ClockEstimate{Rank: r, Samples: 1}
	}
	j, rec := MergeTelemetry(p, time.Now(), sections, clocks)
	var buf bytes.Buffer
	if err := WriteChromeTraceWith(&buf, j, rec); err != nil {
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
