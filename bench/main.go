// Command bench is the repository's end-to-end benchmark: distributed
// Infomap (cmd/dinfomap) as real OS processes against single-threaded
// sequential Infomap (cmd/seqinfomap) on the same graph file, the COST
// comparison, plus a traced in-process pass that breaks the wall down by
// layer. See README.md for the workloads, metrics and bounds.
//
//	bash bench/run.sh [-out bench-out] [-workload regexp] [-seed S] [-reps N] [-seconds T] [-trace 0|1]
//
// For each selected workload it generates the graph once, writes one
// edge-list file, builds both commands from source, times them in
// interleaved pairs with tracing off (end-to-end metrics), and runs one
// traced pass that calls each layer's public function (per-layer
// metrics). It prints a fixed-width table of every metric with its unit,
// writes <out>/bench.json (medians, quartiles and raw samples) and
// <out>/<workload>.spans.json, and, when one workload is selected, ends
// its output with one JSON line:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"wall_s": {"value": 4.3, "unit": "s"}, ...}}
//
// Exit status: 0 when every output checked out, 1 when a run failed or
// an output was wrong, 2 on bad flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

type options struct {
	out     string
	seed    uint64
	reps    int
	seconds float64
	trace   int
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	w                 workload
	info              inputInfo
	attempted, failed int
	failures          []string
	samples           map[string][]float64
	layers            map[string]float64 // nil when the traced pass did not run
	spans             []span
}

func main() {
	if os.Getenv(runnerEnv) != "" {
		os.Exit(runnerMain())
	}
	var o options
	flag.StringVar(&o.out, "out", "bench-out", "output directory (graphs, partitions, bench.json, spans)")
	flag.Uint64Var(&o.seed, "seed", 0, "graph generator seed (0 = each dataset's registry seed)")
	flag.IntVar(&o.reps, "reps", 0, "interleaved pairs per workload (0 = the workload's default)")
	flag.Float64Var(&o.seconds, "seconds", 0, "time budget in seconds for each workload's traced pass and timed pairs; replaces -reps")
	flag.IntVar(&o.trace, "trace", -1, "0 = timed runs only, end-to-end metrics; 1 = traced pass (plus timed runs for residual_s), per-layer metrics; -1 = both")
	pattern := flag.String("workload", "", "run only workloads whose name matches this regexp")
	flag.Parse()
	re, err := regexp.Compile(*pattern)
	if err != nil || o.trace < -1 || o.trace > 1 || o.reps < 0 || o.seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad flags")
		flag.Usage()
		os.Exit(2)
	}
	var sel []workload
	for _, w := range workloads {
		if re.MatchString(w.name) {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no workload matches %q\n", *pattern)
		os.Exit(2)
	}
	ok, err := run(context.Background(), o, sel, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run benchmarks the selected workloads, writes the table and, for a
// single workload, the result line to stdout, and reports whether every
// run succeeded and checked out.
func run(ctx context.Context, o options, sel []workload, stdout io.Writer) (bool, error) {
	for _, w := range sel {
		if err := w.checkHost(); err != nil {
			return false, err
		}
	}
	repo, err := findRepo(".")
	if err != nil {
		return false, err
	}
	bins, err := buildBinaries(ctx, repo, filepath.Join(o.out, "bin"))
	if err != nil {
		return false, err
	}
	revision, err := execVersion(ctx, bins.dist)
	if err != nil {
		return false, err
	}
	var results []*workloadResult
	for _, w := range sel {
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.name)
		r, err := runWorkload(ctx, o, w, bins, revision)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
		writeTable(stdout, r)
	}
	if err := writeJSONFile(filepath.Join(o.out, "bench.json"), benchFile(results)); err != nil {
		return false, err
	}
	ok := true
	for _, r := range results {
		ok = ok && r.failed == 0
	}
	if len(results) == 1 {
		if err := json.NewEncoder(stdout).Encode(resultLine(o, results[0])); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func runWorkload(ctx context.Context, o options, w workload, bins binaries, revision string) (*workloadResult, error) {
	dir := filepath.Join(o.out, w.name)
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	in, err := setupInput(w, o.seed, dir, revision)
	if err != nil {
		return nil, err
	}
	r := &workloadResult{w: w}
	start := time.Now()
	tracedL := math.NaN()
	if o.trace != 0 {
		r.attempted++
		layers, spans, L, err := tracedPass(ctx, w, in, bins, dir)
		if err != nil {
			r.fail("traced pass: %v", err)
		} else {
			r.layers, r.spans, tracedL = layers, spans, L
			if err := writeJSONFile(filepath.Join(o.out, w.name+".spans.json"),
				map[string]any{"workload": w.name, "spans": spans}); err != nil {
				return nil, err
			}
		}
	}

	var budget time.Duration
	if o.seconds > 0 {
		budget = max(time.Duration(o.seconds*float64(time.Second))-time.Since(start), time.Nanosecond)
	}
	reps := o.reps
	if reps == 0 {
		reps = w.reps
	}
	t := runPairs(ctx, w, in.files, bins, dir, reps, budget)
	r.attempted += t.attempted
	r.failed += t.failed
	r.failures = append(r.failures, t.failures...)
	r.samples = t.samples
	r.samples["setup_s"] = in.setup
	for i := range in.info.Graphs {
		if !math.IsNaN(t.distL[i]) {
			in.info.Graphs[i].Codelength = t.distL[i]
		}
		if !math.IsNaN(t.seqL[i]) {
			in.info.Graphs[i].SeqCodelength = t.seqL[i]
		}
	}
	r.info = in.info

	// The traced pass runs graph 0 through the same deterministic
	// algorithm as the timed runs, so it must land on the same partition.
	if L0 := t.distL[0]; !math.IsNaN(tracedL) && !math.IsNaN(L0) && math.Abs(tracedL-L0) > 1e-9*math.Abs(L0) {
		r.fail("the traced pass's codelength %.12f differs from the timed runs' %.12f", tracedL, L0)
	}
	if r.layers != nil && len(t.graph0Wall) > 0 {
		r.layers["residual_s"] = median(t.graph0Wall) - r.layers["traced.total_s"]
	}
	return r, nil
}

func (r *workloadResult) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.w.name, r.failures[len(r.failures)-1])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line summary: the gated end-to-end medians with
// -trace 0, per-layer values with -trace 1, both by default.
func resultLine(o options, r *workloadResult) map[string]any {
	metrics := map[string]metricValue{}
	if o.trace != 1 {
		for _, d := range endToEnd {
			if xs := r.samples[d.name]; d.gated && len(xs) > 0 {
				metrics[d.name] = metricValue{median(xs), d.unit}
			}
		}
	}
	if o.trace != 0 && r.layers != nil {
		for _, d := range perLayer {
			metrics[d.name] = metricValue{r.layers[d.name], d.unit}
		}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

func errorRate(r *workloadResult) float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

func benchFile(results []*workloadResult) map[string]any {
	out := map[string]any{}
	for _, r := range results {
		e2e := map[string]summary{}
		for _, d := range endToEnd {
			e2e[d.name] = summarize(d.unit, r.samples[d.name])
		}
		var layers map[string]metricValue
		if r.layers != nil {
			layers = map[string]metricValue{}
			for _, d := range perLayer {
				layers[d.name] = metricValue{r.layers[d.name], d.unit}
			}
		}
		out[r.w.name] = map[string]any{
			"why":        r.w.why,
			"input":      r.info,
			"attempted":  r.attempted,
			"failed":     r.failed,
			"error_rate": errorRate(r),
			"failures":   r.failures,
			"end_to_end": e2e,
			"per_layer":  layers,
		}
	}
	return map[string]any{"schema": "dinfomap-cost-bench/v1", "workloads": out}
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeTable prints every metric of one workload with its unit.
func writeTable(w io.Writer, r *workloadResult) {
	in := r.info
	fmt.Fprintf(w, "\n== %s: %s, p=%d %s, %d graphs\n", r.w.name, in.Dataset, in.P, in.Transport, len(in.Graphs))
	for i, g := range in.Graphs {
		fmt.Fprintf(w, "   graph %d: gen seed %d, %d vertices, %d edges, %.1f MB, sha256 %.12s; codelength %.6f bits (sequential %.6f)\n",
			i, g.GenSeed, g.Vertices, g.Edges, float64(g.FileBytes)/1e6, g.FileSHA256, g.Codelength, g.SeqCodelength)
	}
	fmt.Fprintf(w, "   host: nproc %d, GOMAXPROCS %d, %s; %s\n", in.NumCPU, in.GOMAXPROCS, in.GoVersion, in.Revision)
	fmt.Fprintf(w, "   %-30s %-8s %14s %14s %14s %5s\n", "end to end (tracing off)", "unit", "median", "q1", "q3", "n")
	for _, d := range endToEnd {
		s := summarize(d.unit, r.samples[d.name])
		tail := ""
		if s.TailPct > 0 {
			tail = fmt.Sprintf("  p%d %.6g", s.TailPct, s.TailValue)
		}
		fmt.Fprintf(w, "   %-30s %-8s %14.6g %14.6g %14.6g %5d%s\n", d.name, d.unit, s.Median, s.Q1, s.Q3, s.N, tail)
	}
	fmt.Fprintf(w, "   %-30s %-8s %14.6g %14s %14s %5d\n", "error_rate", "fraction", errorRate(r), "", "", r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	if r.layers == nil {
		return
	}
	fmt.Fprintf(w, "   %-30s %-8s %14s\n", "per layer (traced pass)", "unit", "value")
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-30s %-8s %14.6g\n", d.name, d.unit, r.layers[d.name])
	}
	fmt.Fprintf(w, "   where the wall went (traced blocking path, self time):\n")
	total := r.layers["traced.total_s"]
	for _, row := range pathBreakdown(r.spans, r.layers) {
		fmt.Fprintf(w, "     %-28s %10.4f s %6.1f%%\n", row.name, row.s, 100*row.s/total)
	}
	fmt.Fprintf(w, "     %-28s %10.4f s   (wall_s - traced.total_s)\n", "residual", r.layers["residual_s"])
}

type breakdownRow struct {
	name string
	s    float64
}

// pathBreakdown sums the path's spans by name in first-seen order, with
// core.run split into its stages by the run's own wall clocks.
func pathBreakdown(spans []span, layers map[string]float64) []breakdownRow {
	path := -1
	for i, s := range spans {
		if s.Name == "path" && s.Parent == -1 {
			path = i
		}
	}
	var rows []breakdownRow
	index := map[string]int{}
	for _, s := range spans {
		if s.Parent != path || path < 0 {
			continue
		}
		if s.Name == "core.run" {
			for _, name := range []string{"core.stage1", "core.stage2", "core.other"} {
				rows = append(rows, breakdownRow{name, layers[name+"_s"]})
			}
			continue
		}
		if i, ok := index[s.Name]; ok {
			rows[i].s += s.seconds()
			continue
		}
		index[s.Name] = len(rows)
		rows = append(rows, breakdownRow{s.Name, s.seconds()})
	}
	return rows
}
