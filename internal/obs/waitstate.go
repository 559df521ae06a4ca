// Wait-state attribution (Scalasca-style): turn the mpi runtime's wait
// counters and the journal's phase spans into a lost-time table that
// says *why* a run is slow, not just where time went.
//
// Two categories per rank:
//
//   - barrier skew:  arrival-to-release wait at the synchronization
//     points of collectives (mpi BarrierWaitNs) — the core is
//     collectives-only and bulk-synchronous, so this is all the time a
//     rank sits blocked;
//   - imbalance:     the journal-derived work deficit — per phase, how
//     much less wall time this rank spent than the busiest rank. It is
//     the *explanation* of the skew measured on the other ranks: a rank
//     with high imbalance finished early and paid for it at the next
//     barrier.
//
// All fields here are measured host wall clock and therefore
// nondeterministic; their JSON names carry "wall" so the regression
// differ classifies them ignored.
package obs

import (
	"time"

	"dinfomap/internal/mpi"
)

// WaitTotals is the wait-state slice of mpi.Stats in report form. JSON
// names carry "wall": the values are measured times/classifications that
// vary run to run and must never gate a regression diff.
type WaitTotals struct {
	// BarrierWaitWallNs is arrival-to-release skew at synchronization
	// points.
	BarrierWaitWallNs int64 `json:"barrier_wait_wall_ns,omitempty"`
	// BarrierSyncs counts synchronization points entered (deterministic,
	// kept here so the wait table is self-contained).
	BarrierSyncs int64 `json:"barrier_syncs,omitempty"`
}

// waitFromKind extracts the wait-state fields of one set of counters.
func waitFromKind(k mpi.KindStats) WaitTotals {
	return WaitTotals{
		BarrierWaitWallNs: k.BarrierWaitNs,
		BarrierSyncs:      k.BarrierSyncs,
	}
}

// add accumulates o into w field-wise.
func (w *WaitTotals) add(o WaitTotals) {
	w.BarrierWaitWallNs += o.BarrierWaitWallNs
	w.BarrierSyncs += o.BarrierSyncs
}

// RankWaitStates is one rank's wait-state totals and per-kind split.
// The per-kind buckets satisfy the same conservation invariant as the
// traffic counters: summing ByKind over kinds reproduces the embedded
// totals field-for-field.
type RankWaitStates struct {
	Rank int `json:"rank"`
	WaitTotals
	ByKind map[string]WaitTotals `json:"by_kind,omitempty"`
}

// WaitStatesReport is the run-level wait-state table: per-rank wait
// totals with per-kind splits, plus the run wall the waits are measured
// against.
type WaitStatesReport struct {
	// RunWallNs is the journal-measured run wall (max span end over all
	// ranks); 0 when the run did not journal.
	RunWallNs int64 `json:"run_wall_ns"`
	// Totals sums the per-rank wait states.
	Totals WaitTotals `json:"totals"`
	// Ranks is indexed by rank.
	Ranks []RankWaitStates `json:"ranks"`
}

// runWall returns the journal-measured run wall: the max event end over
// all ranks; 0 without a journal.
func runWall(j *Journal) time.Duration {
	var max time.Duration
	for r := 0; r < j.NumRanks(); r++ {
		for _, ev := range j.Rank(r).Events() {
			if ev.End > max {
				max = ev.End
			}
		}
	}
	return max
}

// BuildWaitStates assembles the wait-state table from each rank's final
// cumulative Stats. j may be nil (RunWallNs stays 0). Returns nil when
// stats is empty.
func BuildWaitStates(stats []mpi.Stats, j *Journal) *WaitStatesReport {
	if len(stats) == 0 {
		return nil
	}
	w := &WaitStatesReport{
		RunWallNs: runWall(j).Nanoseconds(),
		Ranks:     make([]RankWaitStates, len(stats)),
	}
	for r, s := range stats {
		rw := RankWaitStates{Rank: r, WaitTotals: waitFromKind(s.KindStats)}
		for k := 0; k < mpi.NumKinds; k++ {
			kw := waitFromKind(s.ByKind[k])
			if kw == (WaitTotals{}) {
				continue
			}
			if rw.ByKind == nil {
				rw.ByKind = make(map[string]WaitTotals)
			}
			rw.ByKind[mpi.Kind(k).String()] = kw
		}
		w.Totals.add(rw.WaitTotals)
		w.Ranks[r] = rw
	}
	return w
}

// RankLostTime is the lost-time attribution for one rank. BarrierSkew
// is time this rank itself sat blocked; Imbalance is the
// journal-derived work deficit explaining why this rank reached
// synchronization points early.
type RankLostTime struct {
	Rank              int   `json:"rank"`
	BarrierSkewWallNs int64 `json:"barrier_skew_wall_ns"`
	ImbalanceWallNs   int64 `json:"imbalance_wall_ns"`
	// ByPhaseWallNs is the rank's blocked time per journal phase, from
	// the span wait counters.
	ByPhaseWallNs map[string]int64 `json:"by_phase_wall_ns,omitempty"`
	// ByKindWallNs is the rank's blocked time per message kind.
	ByKindWallNs map[string]int64 `json:"by_kind_wall_ns,omitempty"`
}

// LostTimeReport is the run-level lost-time attribution table.
type LostTimeReport struct {
	Ranks []RankLostTime `json:"ranks"`
	// TotalLostWallNs sums the blocked time (barrier skew) over ranks.
	// Imbalance is excluded: it is the explanation of the skew, not
	// additional loss.
	TotalLostWallNs int64 `json:"total_lost_wall_ns"`
	// LostFractionWall is TotalLostWallNs over the total rank-time
	// p * RunWallNs; 0 when the run did not journal.
	LostFractionWall float64 `json:"lost_fraction_wall"`
}

// BuildLostTime assembles the lost-time table. j may be nil (phase and
// imbalance attribution need the journal and stay empty without it).
func BuildLostTime(stats []mpi.Stats, j *Journal) *LostTimeReport {
	if len(stats) == 0 {
		return nil
	}
	lt := &LostTimeReport{Ranks: make([]RankLostTime, len(stats))}

	// Per-phase wall per rank, and the per-phase max over ranks, for the
	// imbalance column. The outer-iteration marker is a zero-duration
	// boundary, not work; skip it.
	phaseWall := make([]map[string]time.Duration, len(stats))
	phaseMax := make(map[string]time.Duration)
	for r := range stats {
		if j == nil {
			break
		}
		pw := j.PhaseWall(r)
		delete(pw, PhaseOuterIter.Name())
		phaseWall[r] = pw
		for ph, d := range pw {
			if d > phaseMax[ph] {
				phaseMax[ph] = d
			}
		}
	}

	for r, s := range stats {
		rl := RankLostTime{Rank: r, BarrierSkewWallNs: s.BarrierWaitNs}
		for k := 0; k < mpi.NumKinds; k++ {
			if blocked := s.ByKind[k].BarrierWaitNs; blocked != 0 {
				if rl.ByKindWallNs == nil {
					rl.ByKindWallNs = make(map[string]int64)
				}
				rl.ByKindWallNs[mpi.Kind(k).String()] = blocked
			}
		}
		if j != nil {
			for _, ev := range j.Rank(r).Events() {
				if ev.WaitNs == 0 || ev.Phase == PhaseOuterIter {
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
		}
		lt.TotalLostWallNs += rl.BarrierSkewWallNs
		lt.Ranks[r] = rl
	}
	if wall := runWall(j).Nanoseconds(); wall > 0 {
		lt.LostFractionWall = float64(lt.TotalLostWallNs) / (float64(len(stats)) * float64(wall))
	}
	return lt
}
