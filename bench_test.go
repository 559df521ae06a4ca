package dinfomap

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section 4), plus the ablation benches listed
// in DESIGN.md Section 5. Each benchmark regenerates its experiment at
// a reduced scale and reports the headline quantity of the
// corresponding table/figure through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction's key numbers alongside the usual ns/op.
// cmd/experiments regenerates the full-scale tables.

import (
	"testing"
	"time"

	"dinfomap/internal/experiments"
	"dinfomap/internal/obs"
)

// benchOpts keeps the full -bench=. sweep around a minute.
var benchOpts = experiments.Options{Scale: 0.1, Seed: 7}

func BenchmarkTable1Datasets(b *testing.B) {
	var edges int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		edges = 0
		for _, r := range rows {
			edges += r.Edges
		}
	}
	b.ReportMetric(float64(edges), "edges-generated")
}

func BenchmarkFig4Convergence(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunFig4(benchOpts, 4, []string{"amazon", "dblp"})
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		for _, r := range rs {
			if g := r.RelGap; g > gap {
				gap = g
			}
		}
	}
	b.ReportMetric(100*gap, "max-MDL-gap-%")
}

func BenchmarkFig5MergeRate(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunFig5(benchOpts, 4, []string{"amazon"})
		if err != nil {
			b.Fatal(err)
		}
		rate = rs[0].Distributed[0]
	}
	b.ReportMetric(100*rate, "stage1-merge-%")
}

func BenchmarkTable2Quality(b *testing.B) {
	var nmi float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(benchOpts, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		nmi = 0
		for _, r := range rows {
			nmi += r.Quality.NMI
		}
		nmi /= float64(len(rows))
	}
	b.ReportMetric(nmi, "mean-NMI")
}

func BenchmarkFig6Workload(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBalance(benchOpts, []string{"uk-2005"}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		ratio = float64(r.OneDMaxEdges) / float64(r.DelMaxEdges)
	}
	b.ReportMetric(ratio, "1D/delegate-max-edges")
}

func BenchmarkFig7Ghosts(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBalance(benchOpts, []string{"friendster"}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		spread = float64(r.OneDMaxGhosts-r.OneDMinGhosts) /
			float64(max(1, r.DelMaxGhosts-r.DelMinGhosts))
	}
	b.ReportMetric(spread, "1D/delegate-ghost-spread")
}

func BenchmarkFig8Breakdown(b *testing.B) {
	var find time.Duration
	for i := 0; i < b.N; i++ {
		bs, err := experiments.RunFig8(benchOpts, "uk-2005", []int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
		find = bs[len(bs)-1].Phases[obs.PhaseFindBestModule.Name()]
	}
	b.ReportMetric(float64(find.Microseconds()), "find-best-us-at-p8")
}

func BenchmarkFig9Scalability(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig9(benchOpts, []string{"uk-2005"}, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(rows[0].Total) / float64(rows[1].Total)
	}
	b.ReportMetric(speedup, "modeled-speedup-2to8")
}

func BenchmarkFig10Efficiency(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig10(benchOpts, []string{"youtube"}, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		eff = rows[0].Efficiency[len(rows[0].Efficiency)-1]
	}
	b.ReportMetric(100*eff, "efficiency-%-at-p8")
}

func BenchmarkTable3Speedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable3(benchOpts, []string{"uk-2005"}, 8)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].Speedup
	}
	b.ReportMetric(speedup, "speedup-vs-gossip")
}

// ---- Ablation benches (DESIGN.md Section 5) ----

func BenchmarkAblationThreshold(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationThreshold(benchOpts, "uk-2005", 8)
		if err != nil {
			b.Fatal(err)
		}
		// Max-rank load without delegates over the paper default.
		ratio = float64(rows[3].MaxEdges) / float64(max(1, rows[1].MaxEdges))
	}
	b.ReportMetric(ratio, "noDelegate/default-load")
}

func BenchmarkAblationMinLabel(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationMinLabel(benchOpts, "dblp", 4)
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(rows[1].Iterations) / float64(max(1, rows[0].Iterations))
	}
	b.ReportMetric(extra, "off/on-stage1-iters")
}

func BenchmarkAblationDedup(b *testing.B) {
	var inflate float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationDedup(benchOpts, "amazon", 4)
		if err != nil {
			b.Fatal(err)
		}
		inflate = float64(rows[1].Bytes) / float64(max(1, int(rows[0].Bytes)))
	}
	b.ReportMetric(inflate, "noDedup/dedup-bytes")
}

func BenchmarkAblationRebalance(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationRebalance(benchOpts, "uk-2005", 8)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(rows[1].MaxEdges) / float64(max(1, rows[0].MaxEdges))
	}
	b.ReportMetric(ratio, "off/on-max-edges")
}

func BenchmarkAblationApproxDelegates(b *testing.B) {
	var dNMI float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationApproxDelegates(benchOpts, "youtube", 4)
		if err != nil {
			b.Fatal(err)
		}
		dNMI = rows[0].SeqNMI - rows[1].SeqNMI
	}
	b.ReportMetric(dNMI, "exact-minus-approx-NMI")
}

func BenchmarkAblationDamping(b *testing.B) {
	var dNMI float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationDamping(benchOpts, "ndweb", 8)
		if err != nil {
			b.Fatal(err)
		}
		dNMI = rows[0].SeqNMI - rows[1].SeqNMI
	}
	b.ReportMetric(dNMI, "damped-minus-undamped-NMI")
}
