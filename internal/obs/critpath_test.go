package obs

import (
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

// craftedRun builds a 3-rank, 2-generation scenario with a known
// straggler chain:
//
//	gen 0: rank 1 arrives last (200ns)  -> gates everyone, release 205
//	gen 1: rank 0 arrives last (500ns)  -> gates everyone, release 505
//	run end: rank 2's final span ends at 600ns, the latest finish
//
// so the critical path must read rank 1 -> rank 0 -> rank 2.
func craftedRun() *Journal {
	j := NewJournal(3)
	rec := j.Recorder()

	arrive0 := []time.Duration{100, 200, 150} // gen 0 arrivals per rank
	arrive1 := []time.Duration{500, 400, 300} // gen 1 arrivals per rank
	for r := 0; r < 3; r++ {
		rec.AddBarrier(r, mpi.BarrierEvent{Arrive: arrive0[r], Release: 205})
		rec.AddBarrier(r, mpi.BarrierEvent{Arrive: arrive1[r], Release: 505})
	}

	// Spans for phase attribution: rank 1 computes refresh-round2 up to
	// its gen-0 arrival; rank 0 computes FindBestModule between the
	// barriers; rank 2's final span defines the run end.
	j.Rank(1).Emit(Event{Phase: PhaseRefreshRound2, Start: 0, End: 200})
	j.Rank(0).Emit(Event{Phase: PhaseFindBestModule, Start: 250, End: 450})
	j.Rank(2).Emit(Event{Phase: PhaseRefreshRound1, Start: 550, End: 600})
	return j
}

func TestCriticalPathStragglerChain(t *testing.T) {
	path := CriticalPath(craftedRun())
	if len(path) != 3 {
		t.Fatalf("path has %d segments, want 3: %+v", len(path), path)
	}

	want := []struct {
		rank       int
		start, end int64
		barrier    int
	}{
		{1, 0, 200, 0},    // gated gen 0, from run start to its arrival
		{0, 205, 500, 1},  // gated gen 1, from gen-0 release to its arrival
		{2, 505, 600, -1}, // finished last, from gen-1 release to run end
	}
	for i, w := range want {
		seg := path[i]
		if seg.Rank != w.rank || seg.StartWallNs != w.start || seg.EndWallNs != w.end || seg.Barrier != w.barrier {
			t.Errorf("segment %d = %+v, want rank %d [%d, %d] barrier %d",
				i, seg, w.rank, w.start, w.end, w.barrier)
		}
	}

	// Segments are time-ordered and non-overlapping.
	for i := 1; i < len(path); i++ {
		if path[i].StartWallNs < path[i-1].EndWallNs {
			t.Errorf("segments %d and %d overlap: %+v %+v", i-1, i, path[i-1], path[i])
		}
	}

	// Phase attribution: overlap of each segment with its rank's spans.
	if got := path[0].ByPhaseWallNs[PhaseRefreshRound2.Name()]; got != 200 {
		t.Errorf("segment 0 refresh-round2 attribution = %d, want 200", got)
	}
	if got := path[1].ByPhaseWallNs[PhaseFindBestModule.Name()]; got != 200 {
		t.Errorf("segment 1 FindBestModule attribution = %d, want 200 (span clipped to segment)", got)
	}
	if got := path[2].ByPhaseWallNs[PhaseRefreshRound1.Name()]; got != 50 {
		t.Errorf("segment 2 RefreshRound1 attribution = %d, want 50", got)
	}
}

// TestCriticalPathCoalescesSameRank: when one rank gates consecutive
// generations, its hops merge into a single segment.
func TestCriticalPathCoalescesSameRank(t *testing.T) {
	j := NewJournal(2)
	rec := j.Recorder()
	// Rank 1 arrives last at both generations and finishes last.
	rec.AddBarrier(0, mpi.BarrierEvent{Arrive: 50, Release: 105})
	rec.AddBarrier(1, mpi.BarrierEvent{Arrive: 100, Release: 105})
	rec.AddBarrier(0, mpi.BarrierEvent{Arrive: 150, Release: 305})
	rec.AddBarrier(1, mpi.BarrierEvent{Arrive: 300, Release: 305})
	j.Rank(1).Emit(Event{Phase: PhaseRefreshRound2, Start: 305, End: 400})

	path := CriticalPath(j)
	if len(path) != 1 {
		t.Fatalf("path has %d segments, want 1 (all on rank 1): %+v", len(path), path)
	}
	seg := path[0]
	if seg.Rank != 1 || seg.StartWallNs != 0 || seg.EndWallNs != 400 || seg.Barrier != -1 {
		t.Errorf("coalesced segment = %+v, want rank 1 [0, 400] barrier -1", seg)
	}
}

func TestCriticalPathNilInputs(t *testing.T) {
	if got := CriticalPath(nil); got != nil {
		t.Errorf("nil journal: %+v", got)
	}
	// A recorder with no synchronization events has no DAG to walk.
	if got := CriticalPath(NewJournal(2)); got != nil {
		t.Errorf("no barriers: %+v", got)
	}
}

// TestRunWallCountsFinalRelease: the run wall ends at the later of the
// last span end and the last barrier release over all ranks, so the
// final gather no span covers still counts; the critical path ends at
// the same instant.
func TestRunWallCountsFinalRelease(t *testing.T) {
	if got := RunWall(nil); got != 0 {
		t.Errorf("RunWall(nil) = %v, want 0", got)
	}
	j := craftedRun()
	if got := RunWall(j); got != 600 {
		t.Errorf("RunWall = %v, want 600 (rank 2's last span end)", got)
	}
	// A last synchronization released after every span: the wall and
	// the path's end move to its release.
	for r := 0; r < 3; r++ {
		j.Recorder().AddBarrier(r, mpi.BarrierEvent{Arrive: 610, Release: 700})
	}
	if got := RunWall(j); got != 700 {
		t.Errorf("RunWall = %v, want 700 (the final release)", got)
	}
	path := CriticalPath(j)
	if end := path[len(path)-1].EndWallNs; end != 700 {
		t.Errorf("critical path ends at %d, want 700 (the run wall)", end)
	}
}

// TestBuildLostTimeImbalance: the rank with less journal wall in a
// phase is charged the deficit against the busiest rank.
func TestBuildLostTimeImbalance(t *testing.T) {
	j := NewJournal(2)
	j.Rank(0).Emit(Event{Phase: PhaseFindBestModule, Start: 0, End: 1000, WaitNs: 40})
	j.Rank(1).Emit(Event{Phase: PhaseFindBestModule, Start: 0, End: 400})

	var s0, s1 mpi.Stats
	s0.BarrierWaitNs = 40
	s1.BarrierWaitNs = 640

	lt := BuildLostTime([]mpi.Stats{s0, s1}, j)
	if lt == nil || len(lt.Ranks) != 2 {
		t.Fatalf("BuildLostTime = %+v", lt)
	}
	if BuildLostTime([]mpi.Stats{s0, s1}, nil) != nil {
		t.Error("BuildLostTime without a journal must be nil")
	}
	if lt.Ranks[0].ImbalanceWallNs != 0 {
		t.Errorf("busiest rank imbalance = %d, want 0", lt.Ranks[0].ImbalanceWallNs)
	}
	if lt.Ranks[1].ImbalanceWallNs != 600 {
		t.Errorf("idle rank imbalance = %d, want 600", lt.Ranks[1].ImbalanceWallNs)
	}
	if lt.Ranks[0].ByPhaseWallNs[PhaseFindBestModule.Name()] != 40 {
		t.Errorf("span wait attribution = %+v", lt.Ranks[0].ByPhaseWallNs)
	}
	// Lost fraction: 40 + 640 ns blocked over 2 ranks x 1000 ns run
	// wall.
	if want := 680.0 / 2000.0; lt.LostFractionWall != want { //dinfomap:float-ok exact division both sides
		t.Errorf("LostFractionWall = %v, want %v", lt.LostFractionWall, want)
	}
}
