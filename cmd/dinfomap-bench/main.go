// Command dinfomap-bench runs the core primitive benchmark suite
// (internal/benchsuite) through testing.Benchmark, records the median
// ns/op, allocs/op, and bytes/op of N runs per benchmark as a
// dinfomap-bench/v1 JSON report, and diffs the report against the
// committed results/bench-baseline.json with the path-classified
// thresholds of internal/regress:
//
//	dinfomap-bench [-count 5] [-bench regexp] [-out BENCH_<rev>.json]
//
// ns/op fails beyond the generous time threshold (default +25%, CPU
// noise is real); allocs/op fails on any increase (allocation counts
// are deterministic, pooling regressions must fail loudly); bytes/op
// follows the bytes threshold. Exit status: 0 clean, 1 regressions
// found, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dinfomap/internal/benchsuite"
	"dinfomap/internal/obs"
	"dinfomap/internal/regress"
)

// ReportSchema tags the benchmark report JSON.
const ReportSchema = "dinfomap-bench/v1"

// benchRecord is the per-benchmark median of the recorded runs.
type benchRecord struct {
	Runs        int     `json:"runs"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchReport is the dinfomap-bench/v1 document.
type benchReport struct {
	Schema     string                 `json:"schema"`
	Revision   string                 `json:"revision"`
	GoVersion  string                 `json:"go_version"`
	Count      int                    `json:"count"`
	Benchmarks map[string]benchRecord `json:"benchmarks"`
}

func main() {
	var (
		count = flag.Int("count", 5, "runs per benchmark; medians are recorded")
		match = flag.String("bench", "", "run only benchmarks matching this regexp")
		out   = flag.String("out", "", "report path (default BENCH_<rev>.json)")
		base  = flag.String("baseline", "results/bench-baseline.json",
			"baseline report to diff against; empty disables the diff")
		timeTol = flag.Float64("time-tol", regress.DefaultTimeTol,
			"relative ns/op increase tolerated before failing")
		allocsTol = flag.Float64("allocs-tol", 0,
			"relative allocs/op increase tolerated before failing")
		reportPath = flag.String("report", "", "write the JSON diff report to this file")
		verbose    = flag.Bool("v", false, "print informational findings, not just regressions")
		version    = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuild().String())
		return
	}
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "dinfomap-bench: -count must be >= 1")
		os.Exit(2)
	}
	var filter *regexp.Regexp
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dinfomap-bench: bad -bench regexp:", err)
			os.Exit(2)
		}
		filter = re
	}

	rep := benchReport{
		Schema:     ReportSchema,
		Revision:   gitRevision(),
		GoVersion:  runtime.Version(),
		Count:      *count,
		Benchmarks: map[string]benchRecord{},
	}
	for _, bench := range benchsuite.Suite() {
		if filter != nil && !filter.MatchString(bench.Name) {
			continue
		}
		ns := make([]float64, 0, *count)
		allocs := make([]float64, 0, *count)
		bytes := make([]float64, 0, *count)
		iters := make([]float64, 0, *count)
		for run := 0; run < *count; run++ {
			r := testing.Benchmark(bench.F)
			if r.N == 0 {
				fmt.Fprintf(os.Stderr, "dinfomap-bench: %s failed (0 iterations)\n", bench.Name)
				os.Exit(2)
			}
			ns = append(ns, float64(r.T.Nanoseconds())/float64(r.N))
			allocs = append(allocs, float64(r.MemAllocs)/float64(r.N))
			bytes = append(bytes, float64(r.MemBytes)/float64(r.N))
			iters = append(iters, float64(r.N))
		}
		// Allocation counts are integral per op; the per-iteration mean
		// picks up fractional residue from runtime-internal allocations
		// (GC bookkeeping, stack growth) that land inside the measured
		// window once in hundreds of iterations. Round it away so the
		// zero-allocation contract gates on real per-op allocations.
		rec := benchRecord{
			Runs:        *count,
			N:           int(median(iters)),
			NsPerOp:     median(ns),
			AllocsPerOp: math.Round(median(allocs)),
			BytesPerOp:  median(bytes),
		}
		rep.Benchmarks[bench.Name] = rec
		fmt.Printf("%-24s %12.0f ns/op %12.0f allocs/op %14.0f B/op  (median of %d)\n",
			bench.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, *count)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "dinfomap-bench: no benchmarks matched")
		os.Exit(2)
	}

	outPath := *out
	if outPath == "" {
		outPath = "BENCH_" + rep.Revision + ".json"
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
		os.Exit(2)
	}
	fmt.Println("wrote", outPath)

	if *base == "" {
		return
	}
	baseline, err := os.ReadFile(*base)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("no baseline at %s; skipping diff\n", *base)
			return
		}
		fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
		os.Exit(2)
	}
	opt := regress.Options{TimeTol: *timeTol, AllocsTol: *allocsTol}
	findings, compared, err := regress.DiffFiles(outPath, baseline, data, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
		os.Exit(2)
	}
	if *reportPath != "" {
		diffRep := struct {
			Schema      string            `json:"schema"`
			Baseline    string            `json:"baseline"`
			Candidate   string            `json:"candidate"`
			Options     regress.Options   `json:"options"`
			Compared    int               `json:"compared"`
			Findings    []regress.Finding `json:"findings,omitempty"`
			Regressions int               `json:"regressions"`
		}{
			Schema: regress.ReportSchema, Baseline: *base, Candidate: outPath,
			Options: opt, Compared: compared, Findings: findings,
		}
		for _, f := range findings {
			if f.Regression {
				diffRep.Regressions++
			}
		}
		rdata, err := json.MarshalIndent(&diffRep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*reportPath, append(rdata, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dinfomap-bench:", err)
			os.Exit(2)
		}
	}
	regressions := 0
	for _, f := range findings {
		if f.Regression {
			regressions++
		}
		if f.Regression || *verbose {
			fmt.Println(f)
		}
	}
	fmt.Printf("diff vs %s: %d leaves compared, %d findings, %d regressions\n",
		*base, compared, len(findings), regressions)
	if regressions > 0 {
		fmt.Println("FAIL: benchmark regressions beyond thresholds")
		os.Exit(1)
	}
	fmt.Println("ok")
}

// gitRevision returns the short commit hash of the working tree, or
// "dev" when git is unavailable (e.g. a source tarball).
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// median returns the middle value (lower-middle for even lengths) of
// xs; xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}
