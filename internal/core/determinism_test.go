package core

import (
	"bytes"
	"fmt"
	"testing"

	"dinfomap/internal/obs"
)

// stripWallTimes zeroes the host wall-clock fields, the only report
// content that legitimately differs between two identical runs (modeled
// times derive from deterministic op/msg/byte counters and must match).
// The wait-state measurements (and the blocked-receive classification,
// which depends on measured timing) are wall-clock too; the barrier
// sync *count* is deterministic and deliberately kept.
func stripWallTimes(rep *obs.Report) {
	rep.Timing.Stage1WallNs = 0
	rep.Timing.Stage2WallNs = 0
	stripWaitMap := func(m map[string]obs.CommTotals) {
		for k, c := range m {
			stripWait(&c)
			m[k] = c
		}
	}
	for i := range rep.Ranks {
		rep.Ranks[i].Wall1Ns = 0
		rep.Ranks[i].Wall2Ns = 0
		stripWait(&rep.Ranks[i].Comm)
		stripWaitMap(rep.Ranks[i].CommByKind)
		for k := range rep.Ranks[i].Iterations {
			rep.Ranks[i].Iterations[k].WallNs = 0
			stripWait(&rep.Ranks[i].Iterations[k].Comm)
			stripWaitMap(rep.Ranks[i].Iterations[k].CommByKind)
		}
	}
	if rep.Comms != nil {
		stripWait(&rep.Comms.Totals)
		stripWaitMap(rep.Comms.ByKind)
	}
}

// stripWait zeroes the measured wait field of one comm record.
func stripWait(c *obs.CommTotals) {
	c.BarrierWaitWallNs = 0
}

// TestRunReportDeterministic runs the distributed algorithm twice with
// the same seed and demands byte-identical dinfomap-run-report/v1 JSON
// (modulo wall times). This is the regression test for the
// nondeterministic map iteration that used to randomize wire encoding
// order in mergeShuffle and the boundary exchange: any map-order
// dependence in the pipeline shows up here as a diff in the MDL trace,
// communication volume, or module count.
func TestRunReportDeterministic(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	for _, p := range []int{1, 4} {
		cfg := Config{P: p, Seed: 42}
		var runs [2][]byte
		for i := range runs {
			res := Run(g, cfg)
			rep := BuildReport(g, cfg, res)
			stripWallTimes(rep)
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
