package experiments

import (
	"fmt"
	"io"
	"sort"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/mpi"
)

// ---- Comms: per-kind communication breakdown ----

// CommsKind aggregates one message kind's traffic across all ranks.
type CommsKind struct {
	BytesSent       int64
	MsgsSent        int64
	CollectiveBytes int64
	Collectives     int64
}

// CommsRow is one (dataset, p) per-kind communication breakdown, the
// data behind the paper's communication-balance discussion: which
// protocol exchanges dominate the traffic, and how evenly the byte
// load spreads over ranks.
type CommsRow struct {
	Dataset string
	P       int
	// TotalBytes sums sent plus collective payload over all ranks.
	TotalBytes int64
	// MinRankBytes / MaxRankBytes bound the per-rank byte load
	// (sent + collective payload), the balance the delegate
	// partitioning is designed to flatten.
	MinRankBytes int64
	MaxRankBytes int64
	// ByKind maps kind name -> cross-rank totals. Kinds with no
	// traffic are omitted.
	ByKind map[string]CommsKind
}

// RunComms measures the per-kind traffic split of distributed runs
// across datasets and processor counts, from the same per-rank
// mpi.Stats the run report's comms.by_kind section exposes.
func RunComms(o Options, datasets []string, ps []int) ([]CommsRow, error) {
	o = o.withDefaults()
	if len(datasets) == 0 {
		datasets = []string{"amazon", "uk-2005"}
	}
	if len(ps) == 0 {
		ps = []int{4, 16}
	}
	var rows []CommsRow
	for _, name := range datasets {
		g, _, err := gen.Load(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			res := core.Run(g, core.Config{P: p, Seed: o.Seed + 7})
			row := CommsRow{
				Dataset: name, P: p,
				ByKind:       map[string]CommsKind{},
				MinRankBytes: -1,
			}
			for _, s := range res.CommStats {
				rankBytes := s.BytesSent + s.CollectiveBytes
				row.TotalBytes += rankBytes
				if row.MinRankBytes < 0 || rankBytes < row.MinRankBytes {
					row.MinRankBytes = rankBytes
				}
				if rankBytes > row.MaxRankBytes {
					row.MaxRankBytes = rankBytes
				}
				for k := mpi.Kind(0); k < mpi.Kind(mpi.NumKinds); k++ {
					ks := s.ByKind[k]
					if ks == (mpi.KindStats{}) {
						continue
					}
					agg := row.ByKind[k.String()]
					agg.BytesSent += ks.BytesSent
					agg.MsgsSent += ks.MsgsSent
					agg.CollectiveBytes += ks.CollectiveBytes
					agg.Collectives += ks.Collectives
					row.ByKind[k.String()] = agg
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatComms renders the per-kind traffic table.
func FormatComms(w io.Writer, rows []CommsRow) {
	writeHeader(w, "Comms: traffic by message kind (all ranks, bytes)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s p=%-3d total %d B, rank load [%d, %d] B\n",
			r.Dataset, r.P, r.TotalBytes, r.MinRankBytes, r.MaxRankBytes)
		kinds := make([]string, 0, len(r.ByKind))
		for k := range r.ByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool {
			a, b := r.ByKind[kinds[i]], r.ByKind[kinds[j]]
			return a.BytesSent+a.CollectiveBytes > b.BytesSent+b.CollectiveBytes
		})
		for _, k := range kinds {
			ks := r.ByKind[k]
			fmt.Fprintf(w, "  %-16s %12d B p2p (%d msgs) %12d B collective (%d ops)\n",
				k, ks.BytesSent, ks.MsgsSent, ks.CollectiveBytes, ks.Collectives)
		}
	}
}
