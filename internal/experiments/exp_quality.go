package experiments

import (
	"fmt"
	"io"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/infomap"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/metrics"
)

// ---- Table 1: dataset inventory ----

// Table1Row describes one generated stand-in dataset.
type Table1Row struct {
	Name        string
	Description string
	Class       string
	Vertices    int
	Edges       int
	MaxDegree   int
	HubFrac     float64
}

// RunTable1 generates every registry dataset and reports its shape.
func RunTable1(o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	var rows []Table1Row
	for _, name := range gen.Names() {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeDegreeStats(g)
		d := gen.Registry[name]
		rows = append(rows, Table1Row{
			Name:        d.Name,
			Description: d.Description,
			Class:       d.Class,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			MaxDegree:   st.Max,
			HubFrac:     st.HubFrac,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1.
func FormatTable1(w io.Writer, rows []Table1Row) {
	writeHeader(w, "Table 1: Datasets (synthetic stand-ins, ~1/1000 scale)")
	fmt.Fprintf(w, "%-14s %-8s %10s %10s %8s %8s  %s\n",
		"Name", "Class", "#Vertices", "#Edges", "MaxDeg", "Hub1%", "Description")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-8s %10d %10d %8d %7.0f%%  %s\n",
			r.Name, r.Class, r.Vertices, r.Edges, r.MaxDegree, 100*r.HubFrac, r.Description)
	}
}

// ---- Figure 4: MDL convergence, sequential vs distributed ----

// ConvergenceResult holds one dataset's MDL traces.
type ConvergenceResult struct {
	Dataset     string
	Sequential  []float64 // MDL after each outer iteration
	Distributed []float64
	SeqFinal    float64
	DistFinal   float64
	RelGap      float64 // (dist-seq)/seq at convergence
}

// RunFig4 reproduces Figure 4 on the paper's four convergence datasets
// (Amazon, DBLP, ND-Web, YouTube) with p simulated ranks.
func RunFig4(o Options, p int, datasets []string) ([]ConvergenceResult, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"amazon", "dblp", "ndweb", "youtube"}
	}
	var out []ConvergenceResult
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 1})
		dist := core.Run(g, core.Config{P: p, Seed: o.Seed + 1})
		r := ConvergenceResult{
			Dataset:     name,
			Sequential:  seq.MDLTrace,
			Distributed: dist.MDLTrace,
			SeqFinal:    seq.Codelength,
			DistFinal:   dist.Codelength,
		}
		// Guard the relative gap against (near-)zero sequential
		// codelengths: dividing by rounding noise would report a huge
		// bogus gap for degenerate graphs.
		if !mapeq.ApproxEq(seq.Codelength, 0, 1e-12) {
			r.RelGap = (dist.Codelength - seq.Codelength) / seq.Codelength
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatFig4 renders the Figure 4 series.
func FormatFig4(w io.Writer, rs []ConvergenceResult) {
	writeHeader(w, "Figure 4: MDL convergence (sequential vs distributed)")
	for _, r := range rs {
		fmt.Fprintf(w, "%-12s seq : %s\n", r.Dataset, fmtSeries(r.Sequential))
		fmt.Fprintf(w, "%-12s dist: %s\n", "", fmtSeries(r.Distributed))
		fmt.Fprintf(w, "%-12s final seq=%.4f dist=%.4f gap=%+.2f%%\n",
			"", r.SeqFinal, r.DistFinal, 100*r.RelGap)
	}
}

// ---- Figure 5: vertex merging rate ----

// MergeRateResult holds one dataset's merge-rate traces.
type MergeRateResult struct {
	Dataset     string
	Sequential  []float64
	Distributed []float64
}

// RunFig5 reproduces Figure 5: merged-vertex fraction per outer
// iteration, sequential vs distributed.
func RunFig5(o Options, p int, datasets []string) ([]MergeRateResult, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"amazon", "dblp", "ndweb", "youtube"}
	}
	var out []MergeRateResult
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 2})
		dist := core.Run(g, core.Config{P: p, Seed: o.Seed + 2})
		out = append(out, MergeRateResult{
			Dataset:     name,
			Sequential:  seq.MergeRate,
			Distributed: dist.MergeRate,
		})
	}
	return out, nil
}

// FormatFig5 renders the Figure 5 series.
func FormatFig5(w io.Writer, rs []MergeRateResult) {
	writeHeader(w, "Figure 5: vertex merging rate per outer iteration")
	for _, r := range rs {
		fmt.Fprintf(w, "%-12s seq : %s\n", r.Dataset, fmtSeries(r.Sequential))
		fmt.Fprintf(w, "%-12s dist: %s\n", "", fmtSeries(r.Distributed))
	}
}

// ---- Table 2: quality measurements ----

// Table2Row holds the quality of the distributed partition relative to
// the sequential one for one dataset.
type Table2Row struct {
	Dataset  string
	Quality  metrics.Quality
	TruthNMI float64 // NMI vs planted ground truth (extra column)
}

// RunTable2 reproduces Table 2 (NMI, F-measure, Jaccard on DBLP and
// Amazon, distributed vs sequential) with p ranks.
func RunTable2(o Options, p int, datasets []string) ([]Table2Row, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"dblp", "amazon"}
	}
	var out []Table2Row
	for _, name := range datasets {
		g, truth, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		seq := infomap.Run(g, infomap.Config{Seed: o.Seed + 3})
		dist := core.Run(g, core.Config{P: p, Seed: o.Seed + 3})
		row := Table2Row{
			Dataset: name,
			Quality: metrics.Compare(dist.Communities, seq.Communities),
		}
		if truth != nil {
			row.TruthNMI = metrics.NMI(dist.Communities, truth)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(w io.Writer, rows []Table2Row) {
	writeHeader(w, "Table 2: quality of distributed vs sequential partitions")
	fmt.Fprintf(w, "%-12s %6s %10s %6s %12s\n", "Dataset", "NMI", "F-measure", "JI", "NMI-vs-truth")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6.2f %10.2f %6.2f %12.2f\n",
			r.Dataset, r.Quality.NMI, r.Quality.FMeasure, r.Quality.Jaccard, r.TruthNMI)
	}
}
