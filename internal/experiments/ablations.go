package experiments

import (
	"fmt"
	"io"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/infomap"
	"dinfomap/internal/metrics"
	"dinfomap/internal/partition"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label      string
	Modeled    time.Duration
	Bytes      int64
	Codelength float64
	SeqNMI     float64 // vs the sequential partition
	Iterations int     // stage-1 sweeps until convergence
	MaxEdges   int     // heaviest rank's arc count
}

// RunAblationThreshold sweeps the delegate threshold d_high
// (DESIGN.md Section 5): the paper's default p, fractions and multiples
// of it, and "infinite" (no delegates, pure 1D-with-owner layout).
func RunAblationThreshold(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 7})
	configs := []struct {
		label string
		dHigh int
	}{
		{"d_high = p/2", p / 2},
		{"d_high = p (paper)", p},
		{"d_high = 4p", 4 * p},
		{"d_high = inf (no delegates)", 1 << 30},
	}
	var rows []AblationRow
	for _, c := range configs {
		res := core.Run(g, core.Config{P: p, DHigh: c.dHigh, Seed: o.Seed + 7})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			SeqNMI:     metrics.NMI(res.Communities, seq.Communities),
			Iterations: res.Stage1Iterations,
			MaxEdges:   res.Partition.MaxEdges,
		})
	}
	return rows, nil
}

// RunAblationMinLabel compares the minimum-label anti-bouncing rule on
// and off (Section 3.4's vertex bouncing problem).
func RunAblationMinLabel(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 8})
	var rows []AblationRow
	for _, c := range []struct {
		label string
		off   bool
	}{{"min-label ON (paper)", false}, {"min-label OFF", true}} {
		res := core.Run(g, core.Config{P: p, NoMinLabel: c.off, Seed: o.Seed + 8})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			SeqNMI:     metrics.NMI(res.Communities, seq.Communities),
			Iterations: res.Stage1Iterations,
		})
	}
	return rows, nil
}

// RunAblationDedup compares the isSent Module_Info deduplication on and
// off (the duplicated-information problem of Figure 3).
func RunAblationDedup(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range []struct {
		label string
		off   bool
	}{{"isSent dedup ON (paper)", false}, {"dedup OFF (naive)", true}} {
		res := core.Run(g, core.Config{P: p, NoDedup: c.off, Seed: o.Seed + 9})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			Iterations: res.Stage1Iterations,
		})
	}
	return rows, nil
}

// RunAblationRebalance compares delegate partitioning with and without
// the imbalance-correction pass (preprocessing step 4 of Section 3.3).
func RunAblationRebalance(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range []struct {
		label string
		off   bool
	}{{"rebalance ON (paper)", false}, {"rebalance OFF", true}} {
		st := partition.Delegate(g, p, partition.DelegateOptions{NoRebalance: c.off}).Stats()
		res := core.Run(g, core.Config{P: p, NoRebalance: c.off, Seed: o.Seed + 10})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			MaxEdges:   st.MaxEdges,
		})
	}
	return rows, nil
}

// RunAblationApproxDelegates compares the exact two-round delegate
// decision (this repo's default) with the paper's literal local-delta-L
// broadcast; see DESIGN.md "Known deviations".
func RunAblationApproxDelegates(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 11})
	var rows []AblationRow
	for _, c := range []struct {
		label  string
		approx bool
	}{{"exact delegate moves (ours)", false}, {"local delta-L only (paper)", true}} {
		res := core.Run(g, core.Config{P: p, ApproxDelegates: c.approx, Seed: o.Seed + 11})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			SeqNMI:     metrics.NMI(res.Communities, seq.Communities),
			Iterations: res.Stage1Iterations,
		})
	}
	return rows, nil
}

// RunAblationDamping compares the probabilistic deferral of
// cross-boundary moves on and off: with exact synchronized statistics,
// undamped ranks herd into the same attractive modules in the same
// round and over-merge (see DESIGN.md §6).
func RunAblationDamping(o Options, dataset string, p int) ([]AblationRow, error) {
	o = o.withDefaults()
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 12})
	var rows []AblationRow
	for _, c := range []struct {
		label string
		off   bool
	}{{"damping ON (ours)", false}, {"damping OFF", true}} {
		res := core.Run(g, core.Config{P: p, NoDamping: c.off, Seed: o.Seed + 12})
		rows = append(rows, AblationRow{
			Label:      c.label,
			Modeled:    res.TotalModeled(),
			Bytes:      res.MaxRankBytes,
			Codelength: res.Codelength,
			SeqNMI:     metrics.NMI(res.Communities, seq.Communities),
			Iterations: res.Stage1Iterations,
		})
	}
	return rows, nil
}

// FormatAblation renders an ablation sweep.
func FormatAblation(w io.Writer, title string, rows []AblationRow) {
	writeHeader(w, title)
	fmt.Fprintf(w, "%-30s %12s %12s %10s %8s %6s %10s\n",
		"Config", "modeled", "maxRankB", "L", "seqNMI", "iters", "maxEdges")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12s %12d %10.4f %8.2f %6d %10d\n",
			r.Label, r.Modeled.Round(time.Microsecond), r.Bytes,
			r.Codelength, r.SeqNMI, r.Iterations, r.MaxEdges)
	}
}
