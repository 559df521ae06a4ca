package core

import (
	"testing"

	"dinfomap/internal/mpi"
)

// TestCommKindAccounting runs the full algorithm and checks the
// per-kind accounting invariants end to end: every rank's cumulative
// stats are conserved (kind sums == totals), real protocol traffic is
// attributed to named kinds rather than the catch-all, the
// per-outer-iteration slices are themselves conserved deltas that sum
// to at most the rank totals, and the run report's comms rollup matches.
func TestCommKindAccounting(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	cfg := Config{P: 4, Seed: 7}
	res := Run(g, cfg)

	if len(res.CommStats) != cfg.P || len(res.Ranks) != cfg.P {
		t.Fatalf("per-rank slices sized %d/%d, want %d",
			len(res.CommStats), len(res.Ranks), cfg.P)
	}
	for r, s := range res.CommStats {
		if !s.Conserved() {
			t.Errorf("rank %d: cumulative stats not conserved:\nsums   %+v\ntotals %+v",
				r, s.KindSums(), s)
		}
		// The protocol must attribute its dominant exchanges: module
		// refresh (partials + authoritative replies), setup, and
		// control collectives all run on every rank.
		for _, k := range []mpi.Kind{
			mpi.KindModulePartial, mpi.KindModuleInfo,
			mpi.KindSetup, mpi.KindCollective, mpi.KindAssignment,
		} {
			if s.ByKind[k].TotalBytes() == 0 && s.ByKind[k].Collectives == 0 {
				t.Errorf("rank %d: kind %v has no traffic attributed", r, k)
			}
		}

		iters := res.Ranks[r].Iterations
		if len(iters) != res.OuterIterations {
			t.Errorf("rank %d: %d iteration slices, want %d (outer iterations)",
				r, len(iters), res.OuterIterations)
		}
		var sum mpi.KindStats
		for i, it := range iters {
			if it.Outer != i {
				t.Errorf("rank %d: slice %d has outer %d", r, i, it.Outer)
			}
			wantStage := 2
			if i == 0 {
				wantStage = 1
			}
			if it.Stage != wantStage {
				t.Errorf("rank %d outer %d: stage %d, want %d", r, i, it.Stage, wantStage)
			}
			var byKind mpi.KindStats
			for _, kt := range it.CommByKind {
				byKind.Add(kt)
			}
			if len(it.CommByKind) > 0 && byKind != it.Comm {
				t.Errorf("rank %d outer %d: by-kind sum %+v != comm %+v",
					r, i, byKind, it.Comm)
			}
			sum.Add(it.Comm)
		}
		// The slices cover run start through the last iteration; only
		// the final full-assignment gather falls outside them.
		total := s.KindStats
		if sum.BytesSent > total.BytesSent || sum.CollectiveBytes > total.CollectiveBytes ||
			sum.MsgsSent > total.MsgsSent || sum.Collectives > total.Collectives {
			t.Errorf("rank %d: iteration deltas %+v exceed totals %+v", r, sum, total)
		}
		if sum.BytesSent+sum.CollectiveBytes == 0 {
			t.Errorf("rank %d: iteration slices carry no traffic", r)
		}
	}

	// Report rollup: comms.totals is the rank sum; by_kind sums back to
	// the totals (conservation surfaces in the JSON too).
	rep := BuildReport(cfg, res)
	if rep.Comms == nil {
		t.Fatal("report missing comms rollup")
	}
	var want mpi.KindStats
	for _, s := range res.CommStats {
		want.Add(s.KindStats)
	}
	if rep.Comms.Totals != want {
		t.Errorf("comms.totals %+v != rank sum %+v", rep.Comms.Totals, want)
	}
	var byKind mpi.KindStats
	for _, kt := range rep.Comms.ByKind {
		byKind.Add(kt)
	}
	if byKind != rep.Comms.Totals {
		t.Errorf("comms.by_kind sum %+v != comms.totals %+v", byKind, rep.Comms.Totals)
	}
	for r, rr := range rep.Ranks {
		var ks mpi.KindStats
		for _, kt := range rr.CommByKind {
			ks.Add(kt)
		}
		if ks != rr.Comm {
			t.Errorf("rank %d report: comm_by_kind sum %+v != comm %+v", r, ks, rr.Comm)
		}
		if len(rr.Iterations) == 0 {
			t.Errorf("rank %d report: no iteration slices", r)
		}
	}
}
