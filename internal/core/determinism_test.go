package core

import (
	"bytes"
	"fmt"
	"testing"

	"dinfomap/internal/obs"
)

// TestRunReportDeterministic runs the distributed algorithm twice with
// the same seed and demands byte-identical run-report JSON once
// obs.ScrubVolatile has zeroed the measured fields. This is the
// regression test for the nondeterministic map iteration that used to
// randomize wire encoding order in mergeShuffle and the boundary
// exchange: any map-order dependence in the pipeline shows up here as
// a diff in the MDL trace, communication volume, or module count.
func TestRunReportDeterministic(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	for _, p := range []int{1, 4} {
		cfg := Config{P: p, Seed: 42}
		var runs [2][]byte
		for i := range runs {
			res := Run(g, cfg)
			rep := BuildReport(cfg, res)
			obs.ScrubVolatile(rep)
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("p=%d: WriteJSON: %v", p, err)
			}
			runs[i] = buf.Bytes()
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("p=%d: same-seed runs produced different reports:\n%s",
				p, firstDiff(runs[0], runs[1]))
		}
	}
}

// TestRunCommunitiesDeterministic checks the raw result too, so a
// report-layer bug cannot mask a pipeline difference (or vice versa).
func TestRunCommunitiesDeterministic(t *testing.T) {
	g, _ := planted(11, 400, 8, 0.25)
	a := Run(g, Config{P: 3, Seed: 9})
	b := Run(g, Config{P: 3, Seed: 9})
	if a.Codelength != b.Codelength {
		t.Errorf("codelengths differ: %v vs %v", a.Codelength, b.Codelength)
	}
	if a.NumModules != b.NumModules {
		t.Errorf("module counts differ: %d vs %d", a.NumModules, b.NumModules)
	}
	for u := range a.Communities {
		if a.Communities[u] != b.Communities[u] {
			t.Fatalf("community of vertex %d differs: %d vs %d",
				u, a.Communities[u], b.Communities[u])
		}
	}
}

// firstDiff renders the first line where two byte slices diverge.
func firstDiff(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
		}
	}
	return "reports differ in length"
}
