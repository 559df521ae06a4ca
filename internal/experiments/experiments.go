// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the synthetic stand-in datasets.
// Each experiment has a Run function returning structured results and a
// Format function rendering the same rows/series the paper reports.
// The cmd/experiments binary drives them; the root bench_test.go wraps
// each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies dataset sizes; 1.0 is the registry default
	// (about 1/1000 of the paper). Benchmarks use smaller scales.
	Scale float64
	// Seed offsets all generator and algorithm seeds.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// writeHeader renders a section header for an experiment report.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// fmtSeries renders a float series compactly.
func fmtSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
