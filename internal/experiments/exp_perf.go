package experiments

import (
	"fmt"
	"io"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/gossip"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

// ---- Figure 8: execution time breakdown ----

// fig8Other is Figure 8's fourth column: the two Module_Info refresh
// rounds, which no journal phase carries under this name.
const fig8Other = "Other"

// RunFig8 reproduces Figure 8: the stage-1 per-iteration time breakdown
// (FindBestModule / BroadcastDelegates / SwapBoundaryInfo / Other) for
// one dataset across processor counts. Times are alpha-beta modeled
// from measured per-rank work and traffic, divided by the number of
// stage-1 iterations to give "one iteration running time" as the paper
// plots.
func RunFig8(o Options, dataset string, ps []int) ([]trace.Breakdown, error) {
	o = o.withDefaults()
	if len(ps) == 0 {
		ps = []int{4, 8, 16, 32}
	}
	g, _, err := gen.Load(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	var out []trace.Breakdown
	for _, p := range ps {
		res := core.Run(g, core.Config{P: p, Seed: o.Seed + 4})
		iters := res.Stage1Iterations
		if iters < 1 {
			iters = 1
		}
		b := trace.Breakdown{P: p, Phases: map[string]time.Duration{}}
		for ph, d := range res.PhaseModeled {
			// The paper's Figure 8 folds the Module_Info refresh into
			// "Other"; the journal and run report keep the rounds split,
			// but the figure merges them back for comparability.
			switch ph {
			case obs.PhaseRefreshRound1.Name(), obs.PhaseRefreshRound2.Name():
				ph = fig8Other
			}
			b.Phases[ph] += d / time.Duration(iters)
		}
		out = append(out, b)
	}
	return out, nil
}

// FormatFig8 renders the Figure 8 table for one dataset.
func FormatFig8(w io.Writer, dataset string, bs []trace.Breakdown) {
	writeHeader(w, fmt.Sprintf("Figure 8: time breakdown per stage-1 iteration (%s, modeled)", dataset))
	fmt.Fprint(w, trace.FormatBreakdowns(bs, []string{
		obs.PhaseFindBestModule.Name(), obs.PhaseBcastDelegates.Name(),
		obs.PhaseSwapBoundary.Name(), fig8Other,
	}))
}

// ---- Figure 9: scalability ----

// ScalabilityRow is one (dataset, p) data point of Figure 9.
type ScalabilityRow struct {
	Dataset string
	P       int
	Stage1  time.Duration // modeled clustering-with-delegates time
	Stage2  time.Duration // modeled clustering-without-delegates time
	Total   time.Duration
}

// RunFig9 reproduces Figure 9: modeled total running time versus
// processor count, split into the two clustering stages.
func RunFig9(o Options, datasets []string, ps []int) ([]ScalabilityRow, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"uk-2005", "webbase-2001", "friendster", "uk-2007"}
	}
	if len(ps) == 0 {
		ps = []int{4, 8, 16, 32}
	}
	var rows []ScalabilityRow
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			res := core.Run(g, core.Config{P: p, Seed: o.Seed + 5})
			rows = append(rows, ScalabilityRow{
				Dataset: name,
				P:       p,
				Stage1:  res.Stage1Modeled,
				Stage2:  res.Stage2Modeled,
				Total:   res.TotalModeled(),
			})
		}
	}
	return rows, nil
}

// FormatFig9 renders the Figure 9 series.
func FormatFig9(w io.Writer, rows []ScalabilityRow) {
	writeHeader(w, "Figure 9: scalability (modeled time vs processor count)")
	fmt.Fprintf(w, "%-14s %5s %14s %14s %14s\n", "Dataset", "p", "stage 1", "stage 2", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %14s %14s %14s\n",
			r.Dataset, r.P,
			r.Stage1.Round(time.Microsecond),
			r.Stage2.Round(time.Microsecond),
			r.Total.Round(time.Microsecond))
	}
}

// ---- Figure 10: parallel efficiency ----

// EfficiencyRow is one dataset's efficiency curve.
type EfficiencyRow struct {
	Dataset    string
	BaselineP  int
	Ps         []int
	Efficiency []float64 // tau relative to the baseline processor count
}

// RunFig10 reproduces Figure 10: relative parallel efficiency
// tau = p1 T(p1) / (p2 T(p2)) with the smallest processor count as the
// baseline, per dataset.
func RunFig10(o Options, datasets []string, ps []int) ([]EfficiencyRow, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"amazon", "dblp", "ndweb", "youtube"}
	}
	if len(ps) == 0 {
		ps = []int{2, 4, 8, 16}
	}
	rows9, err := RunFig9(o, datasets, ps)
	if err != nil {
		return nil, err
	}
	byDataset := map[string][]ScalabilityRow{}
	for _, r := range rows9 {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	var out []EfficiencyRow
	for _, name := range datasets {
		rs := byDataset[name]
		row := EfficiencyRow{Dataset: name, BaselineP: rs[0].P}
		base := rs[0]
		for _, r := range rs {
			row.Ps = append(row.Ps, r.P)
			row.Efficiency = append(row.Efficiency,
				trace.Efficiency(base.P, base.Total, r.P, r.Total))
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatFig10 renders the Figure 10 curves.
func FormatFig10(w io.Writer, rows []EfficiencyRow) {
	writeHeader(w, "Figure 10: relative parallel efficiency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s baseline p=%d:", r.Dataset, r.BaselineP)
		for i, p := range r.Ps {
			fmt.Fprintf(w, "  p=%d: %.0f%%", p, 100*r.Efficiency[i])
		}
		fmt.Fprintln(w)
	}
}

// ---- Table 3: speedup over the gossip baseline ----

// Table3Row compares the distributed algorithm to the GossipMap-style
// baseline on one dataset under the same cost model.
type Table3Row struct {
	Dataset   string
	P         int
	Ours      time.Duration
	Baseline  time.Duration
	Speedup   float64
	OursL     float64 // final codelengths, to show quality is not traded
	BaselineL float64
}

// RunTable3 reproduces Table 3: speedup of our algorithm over the
// local-information baseline, growing with graph size.
func RunTable3(o Options, datasets []string, p int) ([]Table3Row, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"ndweb", "livejournal", "webbase-2001", "uk-2007"}
	}
	if p <= 0 {
		p = 16
	}
	var rows []Table3Row
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		ours := core.Run(g, core.Config{P: p, Seed: o.Seed + 6})
		base := gossip.Run(g, gossip.Config{P: p, Seed: o.Seed + 6})
		row := Table3Row{
			Dataset:   name,
			P:         p,
			Ours:      ours.TotalModeled(),
			Baseline:  base.Modeled,
			OursL:     ours.Codelength,
			BaselineL: base.Codelength,
		}
		if ours.TotalModeled() > 0 {
			row.Speedup = float64(base.Modeled) / float64(ours.TotalModeled())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders Table 3.
func FormatTable3(w io.Writer, rows []Table3Row) {
	writeHeader(w, "Table 3: speedup over the GossipMap-style baseline (same cost model)")
	fmt.Fprintf(w, "%-14s %5s %14s %14s %9s %10s %10s\n",
		"Dataset", "p", "ours", "baseline", "speedup", "ours L", "base L")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %14s %14s %8.2fx %10.3f %10.3f\n",
			r.Dataset, r.P,
			r.Ours.Round(time.Microsecond), r.Baseline.Round(time.Microsecond),
			r.Speedup, r.OursL, r.BaselineL)
	}
}
