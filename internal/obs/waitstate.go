// Wait-state attribution (Scalasca-style): turn the mpi runtime's wait
// counters and the journal's phase spans into a lost-time table that
// says *why* a run is slow, not just where time went.
//
// Each rank's blocked time is its barrier skew — the arrival-to-release
// wait at the synchronization points of its collectives (mpi
// BarrierWaitNs, in the report's comm sections): the core is
// collectives-only and bulk-synchronous, so this is all the time a rank
// sits blocked. The lost-time table adds what only the journal knows:
//
//   - imbalance: the journal-derived work deficit — per phase, how much
//     less wall time this rank spent than the busiest rank. It is the
//     *explanation* of the skew measured on the other ranks: a rank
//     with high imbalance finished early and paid for it at the next
//     barrier;
//   - the blocked time per journal phase, from the span wait counters;
//   - the lost fraction: blocked time over the run's total rank-time.
//
// All fields here are measured host wall clock and therefore
// nondeterministic; their JSON names carry "wall" so the regression
// differ classifies them ignored.
package obs

import (
	"time"

	"dinfomap/internal/mpi"
)

// RankLostTime is the journal-derived lost-time attribution for one
// rank: Imbalance is the work deficit explaining why this rank reached
// synchronization points early.
type RankLostTime struct {
	Rank            int   `json:"rank"`
	ImbalanceWallNs int64 `json:"imbalance_wall_ns"`
	// ByPhaseWallNs is the rank's blocked time per journal phase, from
	// the span wait counters.
	ByPhaseWallNs map[string]int64 `json:"by_phase_wall_ns,omitempty"`
}

// LostTimeReport is the run-level lost-time attribution table.
type LostTimeReport struct {
	Ranks []RankLostTime `json:"ranks"`
	// LostFractionWall is the blocked time (barrier skew) summed over
	// ranks, over the total rank-time p * RunWall. Imbalance is
	// excluded: it is the explanation of the skew, not additional loss.
	LostFractionWall float64 `json:"lost_fraction_wall"`
}

// BuildLostTime assembles the lost-time table from each rank's final
// cumulative Stats and the run's journal. Returns nil without a journal
// or without stats.
func BuildLostTime(stats []mpi.Stats, j *Journal) *LostTimeReport {
	if len(stats) == 0 || j.NumRanks() == 0 {
		return nil
	}
	lt := &LostTimeReport{Ranks: make([]RankLostTime, len(stats))}

	// Per-phase wall per rank, and the per-phase max over ranks, for the
	// imbalance column.
	phaseWall := make([]map[string]time.Duration, len(stats))
	phaseMax := make(map[string]time.Duration)
	for r := range stats {
		phaseWall[r] = j.PhaseWall(r)
		for ph, d := range phaseWall[r] {
			if d > phaseMax[ph] {
				phaseMax[ph] = d
			}
		}
	}

	var blocked int64
	for r, s := range stats {
		rl := RankLostTime{Rank: r}
		for _, ev := range j.Rank(r).Events() {
			if ev.WaitNs == 0 {
				continue
			}
			if rl.ByPhaseWallNs == nil {
				rl.ByPhaseWallNs = make(map[string]int64)
			}
			rl.ByPhaseWallNs[ev.Phase.Name()] += ev.WaitNs
		}
		for ph, max := range phaseMax {
			rl.ImbalanceWallNs += (max - phaseWall[r][ph]).Nanoseconds()
		}
		blocked += s.BarrierWaitNs
		lt.Ranks[r] = rl
	}
	if wall := RunWall(j).Nanoseconds(); wall > 0 {
		lt.LostFractionWall = float64(blocked) / (float64(len(stats)) * float64(wall))
	}
	return lt
}
