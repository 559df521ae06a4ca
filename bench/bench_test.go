package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// harness must honour: every metric it names, with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMain lets the test binary serve as the runner of timed commands,
// as the harness binary does.
func TestMain(m *testing.M) {
	if os.Getenv(runnerEnv) != "" {
		os.Exit(runnerMain())
	}
	os.Exit(m.Run())
}

// TestSmoke runs the harness with one pair on amazon through the proc
// path and the goroutine path. Every metric BENCHMARK.json names must be
// emitted with its unit, no run may fail, and a second traced pass must
// repeat every count.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	repo, err := findRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if _, ok := lookupWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, the harness has none", sw.Name)
		}
	}

	dir := t.TempDir()
	bins, err := buildBinaries(ctx, repo, filepath.Join(dir, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	proc, ok := lookupWorkload("amazon-p2")
	if !ok {
		t.Fatal("no amazon-p2 workload")
	}
	goroutine := proc
	goroutine.name, goroutine.p, goroutine.proc = "amazon-p1", 1, false

	for _, w := range []workload{proc, goroutine} {
		t.Run(w.name, func(t *testing.T) {
			o := options{out: dir, reps: 1, trace: -1}
			first, err := runWorkload(ctx, o, w, bins, "test")
			if err != nil {
				t.Fatal(err)
			}
			if first.failed != 0 || errorRate(first) != 0 {
				t.Fatalf("error_rate %v: %v", errorRate(first), first.failures)
			}
			metrics := resultLine(o, first)["metrics"].(map[string]metricValue)
			for _, sm := range append(spec.EndToEnd, spec.PerLayer...) {
				if got, ok := metrics[sm.Name]; !ok {
					t.Errorf("metric %s not emitted", sm.Name)
				} else if got.Unit != sm.Unit {
					t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", sm.Name, got.Unit, sm.Unit)
				}
			}

			o.trace = 1
			second, err := runWorkload(ctx, o, w, bins, "test")
			if err != nil {
				t.Fatal(err)
			}
			if second.failed != 0 {
				t.Fatalf("second pass failed: %v", second.failures)
			}
			// Sync mode is deterministic: counts repeat bit for bit.
			for _, d := range perLayer {
				if d.exact && first.layers[d.name] != second.layers[d.name] {
					t.Errorf("%s: %v, then %v", d.name, first.layers[d.name], second.layers[d.name])
				}
			}
		})
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
