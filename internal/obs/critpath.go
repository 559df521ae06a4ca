// Cross-rank critical path through the BSP superstep DAG.
//
// The DAG's nodes are (rank, inter-barrier interval) spans; its edges
// are the synchronization points every rank passes in identical order
// (each collective contributes its internal syncs). Because a barrier releases everyone the instant the last
// rank arrives, the chain that bounds wall clock is recovered by a
// backward walk: start at the rank that finishes the run last; at each
// synchronization generation, jump to the rank that arrived last (the
// gating rank) and extend the path backward through its preceding
// compute interval. Consecutive same-rank hops coalesce into one
// segment, and each segment's time is attributed to journal phases by
// overlap, so the result reads "rank 2's FindBestModule gated
// generations 14-38 for 1.2 ms".
//
// The walk needs the per-generation arrival times, i.e. a run recorded
// with mpi.WithRecorder; without one there is no DAG and CriticalPath
// returns nil.
package obs

import (
	"sort"
	"time"

	"dinfomap/internal/mpi"
)

// CritSegment is one maximal single-rank stretch of the critical path.
type CritSegment struct {
	Rank        int   `json:"rank"`
	StartWallNs int64 `json:"start_wall_ns"`
	EndWallNs   int64 `json:"end_wall_ns"`
	// Barrier is the synchronization generation whose arrival ends the
	// segment (this rank was its last arriver); -1 for the final segment,
	// which ends at run end.
	Barrier int `json:"barrier_seq"`
	// ByPhaseWallNs attributes the segment to journal phases by span
	// overlap; time outside any span (the mpi runtime itself) is omitted.
	ByPhaseWallNs map[string]int64 `json:"by_phase_wall_ns,omitempty"`
}

// DurNs returns the segment length in nanoseconds.
func (s CritSegment) DurNs() int64 { return s.EndWallNs - s.StartWallNs }

// CriticalPath walks the superstep DAG backward and returns the
// critical path as time-ordered, rank-coalesced segments. rec must come
// from the run that produced j (same epoch); a nil recorder, a nil
// journal, or a recorder with no synchronization events yields nil.
//
// The segment durations sum to the run wall minus the barrier release
// latencies between hops (the time between the gating rank's arrival
// and the blocked ranks observing the release), so coverage of the run
// wall is near 1 and is itself a useful health signal.
func CriticalPath(j *Journal, rec *mpi.Recorder) []CritSegment {
	if j == nil || rec == nil || rec.NumRanks() == 0 {
		return nil
	}
	p := rec.NumRanks()
	// Every rank passes synchronization points in the same order; the
	// min guards against a crashed run with ragged logs.
	gens := len(rec.Barriers(0))
	for r := 1; r < p; r++ {
		if n := len(rec.Barriers(r)); n < gens {
			gens = n
		}
	}
	if gens == 0 {
		return nil
	}

	// finish(r): when rank r left the measured run — its last journal
	// span end or last barrier release, whichever is later.
	finish := func(r int) time.Duration {
		var t time.Duration
		for _, ev := range j.Rank(r).Events() {
			if ev.End > t {
				t = ev.End
			}
		}
		if bars := rec.Barriers(r); len(bars) > 0 {
			if rel := bars[len(bars)-1].Release; rel > t {
				t = rel
			}
		}
		return t
	}
	cur, curEnd := 0, finish(0)
	for r := 1; r < p; r++ {
		if t := finish(r); t > curEnd {
			cur, curEnd = r, t
		}
	}

	// Backward walk: the segment [release(g), curEnd] on cur, then hop
	// to the gating (last-arriving) rank of generation g.
	var back []CritSegment
	endBar := -1
	for g := gens - 1; g >= 0; g-- {
		start := rec.Barriers(cur)[g].Release
		if start > curEnd {
			start = curEnd
		}
		back = append(back, CritSegment{
			Rank: cur, StartWallNs: start.Nanoseconds(), EndWallNs: curEnd.Nanoseconds(), Barrier: endBar,
		})
		gating, arrive := 0, rec.Barriers(0)[g].Arrive
		for r := 1; r < p; r++ {
			if a := rec.Barriers(r)[g].Arrive; a > arrive {
				gating, arrive = r, a
			}
		}
		cur, curEnd, endBar = gating, arrive, g
	}
	back = append(back, CritSegment{Rank: cur, StartWallNs: 0, EndWallNs: curEnd.Nanoseconds(), Barrier: endBar})

	// Reverse into time order and coalesce consecutive same-rank hops.
	path := make([]CritSegment, 0, len(back))
	for i := len(back) - 1; i >= 0; i-- {
		seg := back[i]
		if seg.DurNs() <= 0 && seg.Barrier != -1 && len(path) > 0 {
			// Zero-length hop (gating rank arrived exactly at its own
			// release): fold the barrier index into the previous segment.
			path[len(path)-1].Barrier = seg.Barrier
			continue
		}
		if n := len(path); n > 0 && path[n-1].Rank == seg.Rank {
			path[n-1].EndWallNs = seg.EndWallNs
			path[n-1].Barrier = seg.Barrier
			continue
		}
		path = append(path, seg)
	}

	attributePhases(j, path)
	return path
}

// attributePhases fills each segment's ByPhaseWallNs with the overlap
// between the segment and the segment rank's journal spans.
func attributePhases(j *Journal, path []CritSegment) {
	// Journal spans are emitted in time order per rank; binary search
	// for the first span that may overlap each segment.
	for i := range path {
		seg := &path[i]
		evs := j.Rank(seg.Rank).Events()
		lo := sort.Search(len(evs), func(k int) bool {
			return evs[k].End.Nanoseconds() > seg.StartWallNs
		})
		for _, ev := range evs[lo:] {
			if ev.Start.Nanoseconds() >= seg.EndWallNs {
				break
			}
			if ev.Phase == PhaseOuterIter {
				continue
			}
			start, end := ev.Start.Nanoseconds(), ev.End.Nanoseconds()
			if start < seg.StartWallNs {
				start = seg.StartWallNs
			}
			if end > seg.EndWallNs {
				end = seg.EndWallNs
			}
			if end <= start {
				continue
			}
			if seg.ByPhaseWallNs == nil {
				seg.ByPhaseWallNs = make(map[string]int64)
			}
			seg.ByPhaseWallNs[ev.Phase.Name()] += end - start
		}
	}
}
