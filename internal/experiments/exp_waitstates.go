package experiments

import (
	"fmt"
	"io"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/obs"
)

// ---- Waitstates: measured wait-state and critical-path profile ----

// WaitWallProfile nests every measured (host wall clock, hence
// nondeterministic) number of a wait-state row. The field name carries
// "Wall" so the regression differ prunes the whole subtree; only the
// deterministic counters outside it gate golden diffs.
type WaitWallProfile struct {
	// RunNs is the journal-measured run wall.
	RunNs int64
	// BarrierSkewNs / ImbalanceNs are the lost-time attribution totals
	// summed over ranks.
	BarrierSkewNs int64
	ImbalanceNs   int64
	// LostFraction is blocked time over total rank-time.
	LostFraction float64
	// CritSegments counts critical-path segments; CritCoverage is the
	// path total over the run wall (the remainder is synchronization
	// release/wake latency).
	CritSegments int
	CritCoverage float64
}

// WaitRow is one (dataset, p) wait-state summary: deterministic
// protocol counters at the top level (golden-gated), the measured
// profile nested under WallProfile (golden-ignored).
type WaitRow struct {
	Dataset string
	P       int
	// Recvs / Collectives / BarrierSyncs / TotalBytes are deterministic
	// protocol counts summed over ranks.
	Recvs        int64
	Collectives  int64
	BarrierSyncs int64
	TotalBytes   int64
	// ConservationOK reports that every rank's per-kind wait and traffic
	// buckets sum to its totals.
	ConservationOK bool
	WallProfile    WaitWallProfile
}

// RunWaitStates journals distributed runs across datasets and
// processor counts and distills each into the wait-state profile the
// run report's comm, lost_time and critical_path sections expose.
func RunWaitStates(o Options, datasets []string, ps []int) ([]WaitRow, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"amazon", "uk-2005"}
	}
	if len(ps) == 0 {
		ps = []int{4, 16}
	}
	var rows []WaitRow
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			cfg := core.Config{P: p, Seed: o.Seed + 7, Journal: obs.NewJournal(p)}
			res := core.Run(g, cfg)
			row := WaitRow{Dataset: name, P: p, ConservationOK: true}
			for _, s := range res.CommStats {
				row.Recvs += s.MsgsRecv
				row.Collectives += s.Collectives
				row.BarrierSyncs += s.BarrierSyncs
				row.TotalBytes += s.BytesSent + s.CollectiveBytes
				row.WallProfile.BarrierSkewNs += s.BarrierWaitNs
				if !s.Conserved() {
					row.ConservationOK = false
				}
			}
			row.WallProfile.RunNs = obs.RunWall(cfg.Journal).Nanoseconds()
			if lt := obs.BuildLostTime(res.CommStats, cfg.Journal); lt != nil {
				for _, rl := range lt.Ranks {
					row.WallProfile.ImbalanceNs += rl.ImbalanceWallNs
				}
				row.WallProfile.LostFraction = lt.LostFractionWall
			}
			cp := obs.CriticalPath(cfg.Journal)
			row.WallProfile.CritSegments = len(cp)
			var pathNs int64
			for _, seg := range cp {
				pathNs += seg.DurNs()
			}
			if row.WallProfile.RunNs > 0 {
				row.WallProfile.CritCoverage = float64(pathNs) / float64(row.WallProfile.RunNs)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatWaitStates renders the wait-state profile table.
func FormatWaitStates(w io.Writer, rows []WaitRow) {
	writeHeader(w, "Waitstates: measured wait-state and critical-path profile")
	for _, r := range rows {
		ok := "ok"
		if !r.ConservationOK {
			ok = "VIOLATED"
		}
		fmt.Fprintf(w, "%-14s p=%-3d recvs %d, collectives %d, syncs %d, %d B, conservation %s\n",
			r.Dataset, r.P, r.Recvs, r.Collectives, r.BarrierSyncs, r.TotalBytes, ok)
		wp := r.WallProfile
		fmt.Fprintf(w, "  wall: run %s; lost barrier-skew %s, imbalance %s (%.1f%% lost)\n",
			ns(wp.RunNs), ns(wp.BarrierSkewNs), ns(wp.ImbalanceNs), 100*wp.LostFraction)
		fmt.Fprintf(w, "  critical path: %d segments covering %.1f%% of run wall\n",
			wp.CritSegments, 100*wp.CritCoverage)
	}
}

// ns renders a nanosecond count compactly for the text table.
func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
