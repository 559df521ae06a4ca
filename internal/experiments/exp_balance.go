package experiments

import (
	"fmt"
	"io"

	"dinfomap/internal/gen"
	"dinfomap/internal/partition"
)

// BalanceRow compares 1D and delegate partitioning of one dataset at
// one processor count (Figures 6 and 7).
type BalanceRow struct {
	Dataset string
	P       int

	OneDMinEdges, OneDMaxEdges int
	DelMinEdges, DelMaxEdges   int

	OneDMinGhosts, OneDMaxGhosts int
	DelMinGhosts, DelMaxGhosts   int

	NumHubs int
}

// RunBalance computes the Figures 6-7 comparison for the given datasets
// and processor counts. The same run feeds both figures: Figure 6 reads
// the edge columns, Figure 7 the ghost columns.
func RunBalance(o Options, datasets []string, ps []int) ([]BalanceRow, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"uk-2005", "webbase-2001", "friendster", "uk-2007"}
	}
	if len(ps) == 0 {
		ps = []int{16, 32, 64}
	}
	var rows []BalanceRow
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			oneD := partition.OneD(g, p).Stats()
			del := partition.Delegate(g, p, partition.DelegateOptions{}).Stats()
			rows = append(rows, BalanceRow{
				Dataset:       name,
				P:             p,
				OneDMinEdges:  oneD.MinEdges,
				OneDMaxEdges:  oneD.MaxEdges,
				DelMinEdges:   del.MinEdges,
				DelMaxEdges:   del.MaxEdges,
				OneDMinGhosts: oneD.MinGhosts,
				OneDMaxGhosts: oneD.MaxGhosts,
				DelMinGhosts:  del.MinGhosts,
				DelMaxGhosts:  del.MaxGhosts,
				NumHubs:       del.NumHubs,
			})
		}
	}
	return rows, nil
}

// FormatFig6 renders the workload-balance view (edges per rank).
func FormatFig6(w io.Writer, rows []BalanceRow) {
	writeHeader(w, "Figure 6: workload balance (arcs per rank, min-max)")
	fmt.Fprintf(w, "%-14s %5s %22s %22s %8s %8s\n",
		"Dataset", "p", "1D [min,max]", "delegate [min,max]", "1D max/", "hubs")
	fmt.Fprintf(w, "%-14s %5s %22s %22s %8s %8s\n", "", "", "", "", "del max", "")
	for _, r := range rows {
		ratio := float64(r.OneDMaxEdges) / float64(max(1, r.DelMaxEdges))
		fmt.Fprintf(w, "%-14s %5d %22s %22s %7.1fx %8d\n",
			r.Dataset, r.P,
			fmt.Sprintf("[%d, %d]", r.OneDMinEdges, r.OneDMaxEdges),
			fmt.Sprintf("[%d, %d]", r.DelMinEdges, r.DelMaxEdges),
			ratio, r.NumHubs)
	}
}

// FormatFig7 renders the communication-balance view (ghosts per rank).
func FormatFig7(w io.Writer, rows []BalanceRow) {
	writeHeader(w, "Figure 7: communication balance (ghost vertices per rank, min-max)")
	fmt.Fprintf(w, "%-14s %5s %22s %22s\n",
		"Dataset", "p", "1D [min,max]", "delegate [min,max]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %22s %22s\n",
			r.Dataset, r.P,
			fmt.Sprintf("[%d, %d]", r.OneDMinGhosts, r.OneDMaxGhosts),
			fmt.Sprintf("[%d, %d]", r.DelMinGhosts, r.DelMaxGhosts))
	}
}
