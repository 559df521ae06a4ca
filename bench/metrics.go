package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. exact marks values that repeat
// exactly on the same input in sync mode (counts, sizes and ratios of
// counts); the rest are measured. gated marks the end-to-end metrics
// that BENCHMARK.json bounds and the result line carries.
type metricDef struct {
	name, unit   string
	exact, gated bool
}

// endToEnd come from the timed real-process runs, with tracing off;
// each is the median over the run's samples: one per pair, one per
// graph for codelength_ratio, one per set-up for setup_s. error_rate is
// reported beside them as failed/attempted, and each graph's codelength
// in bits with the graph.
//
// wall_s, seq_wall_s and cpu_s are reported but not gated: on a shared
// 2-vCPU host their medians move 15-30% from one run to the next with
// the host's speed, more than any bound a regression gate could use.
// cost_ratio divides the two walls of one pair, taken seconds apart, so
// the host's speed cancels.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s"},
	{name: "seq_wall_s", unit: "s"},
	{name: "cost_ratio", unit: "ratio", gated: true},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB", gated: true},
	{name: "codelength_ratio", unit: "ratio", exact: true, gated: true},
	{name: "setup_s", unit: "s", gated: true},
}

// perLayer come from the traced pass. Layer names are module names.
var perLayer = []metricDef{
	{name: "gen.generate_s", unit: "s"},
	{name: "graph.read_s", unit: "s"},
	{name: "graph.file_mb", unit: "MB", exact: true},
	{name: "partition.delegate_s", unit: "s"},
	{name: "partition.hubs", unit: "count", exact: true},
	{name: "partition.edge_imbalance", unit: "ratio", exact: true},
	{name: "mapeq.flow_init_s", unit: "s"},
	{name: "core.run_s", unit: "s"},
	{name: "core.stage1_s", unit: "s"},
	{name: "core.stage1_sweeps", unit: "count", exact: true},
	{name: "core.sweep.evals", unit: "count", exact: true},
	{name: "core.sweep.work_inflation", unit: "ratio", exact: true},
	{name: "core.sweep.pass_ns_per_vertex", unit: "ns"},
	{name: "core.exchange.bytes", unit: "bytes", exact: true},
	{name: "core.exchange.msgs", unit: "count", exact: true},
	{name: "core.stage2_s", unit: "s"},
	{name: "core.stage2_sweeps", unit: "count", exact: true},
	{name: "core.outer_iters", unit: "count", exact: true},
	{name: "core.merge.bytes", unit: "bytes", exact: true},
	{name: "core.other_s", unit: "s"},
	{name: "core.artifact.bytes", unit: "bytes", exact: true},
	{name: "core.artifact.encode_s", unit: "s"},
	{name: "core.artifact.decode_s", unit: "s"},
	{name: "core.assemble_s", unit: "s"},
	{name: "mpi.dial_s", unit: "s"},
	{name: "mpi.bytes", unit: "bytes", exact: true},
	{name: "mpi.msgs", unit: "count", exact: true},
	{name: "mpi.collectives", unit: "count", exact: true},
	{name: "mpi.max_rank_bytes", unit: "bytes", exact: true},
	{name: "mpi.blocked_s", unit: "s"},
	{name: "infomap.run_s", unit: "s"},
	{name: "infomap.evals", unit: "count", exact: true},
	{name: "infomap.ns_per_eval", unit: "ns"},
	{name: "launch.exec_s", unit: "s"},
	{name: "output.write_s", unit: "s"},
	{name: "traced.total_s", unit: "s"},
	{name: "residual_s", unit: "s"},
}

// summary describes one end-to-end metric's samples. Q1 and Q3 are the
// quartiles of Python's statistics.quantiles(samples, n=4). A tail
// percentile is given only when at least ten samples lie beyond it.
type summary struct {
	Unit      string    `json:"unit"`
	N         int       `json:"n"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	TailPct   int       `json:"tail_pct,omitempty"`
	TailValue float64   `json:"tail_value,omitempty"`
	Samples   []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	if pct := int(100 * (1 - 10/float64(len(sorted)))); pct > 50 {
		s.TailPct = pct
		s.TailValue = sorted[int(math.Ceil(float64(pct)/100*float64(len(sorted))))-1]
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted data by the exclusive method, the default of
// Python's statistics.quantiles; one sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(3)
}
