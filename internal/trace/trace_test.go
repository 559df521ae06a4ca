package trace

import (
	"strings"
	"testing"
	"time"
)

func TestCostModelTime(t *testing.T) {
	m := CostModel{TimePerOp: 2 * time.Nanosecond, Alpha: time.Microsecond, BetaPerByte: time.Nanosecond}
	c := RankCost{Ops: 1000, Msgs: 3, Bytes: 500}
	want := 2000*time.Nanosecond + 3*time.Microsecond + 500*time.Nanosecond
	if got := m.Time(c); got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestStepTimeTakesSlowestRank(t *testing.T) {
	m := DefaultCostModel()
	costs := []RankCost{
		{Ops: 100}, {Ops: 10000}, {Ops: 50},
	}
	if got, want := m.StepTime(costs), m.Time(costs[1]); got != want {
		t.Fatalf("StepTime = %v, want %v (slowest rank)", got, want)
	}
}

func TestStepTimeEmpty(t *testing.T) {
	if got := DefaultCostModel().StepTime(nil); got != 0 {
		t.Fatalf("StepTime(nil) = %v, want 0", got)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{P: 4, Phases: map[string]time.Duration{
		"FindBestModule":   3 * time.Millisecond,
		"SwapBoundaryInfo": time.Millisecond,
	}}
	if b.Total() != 4*time.Millisecond {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestFormatBreakdowns(t *testing.T) {
	bs := []Breakdown{
		{P: 4, Phases: map[string]time.Duration{"FindBestModule": time.Millisecond}},
		{P: 8, Phases: map[string]time.Duration{"FindBestModule": 500 * time.Microsecond}},
	}
	out := FormatBreakdowns(bs, []string{"FindBestModule"})
	if !strings.Contains(out, "FindBestModule") {
		t.Errorf("missing phase header:\n%s", out)
	}
	if !strings.Contains(out, "Total") {
		t.Errorf("missing Total column:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("got %d lines, want 3 (header + 2 rows):\n%s", lines, out)
	}
}

func TestEfficiency(t *testing.T) {
	// Perfect scaling: doubling p halves time -> tau = 1.
	if e := Efficiency(2, 10*time.Second, 4, 5*time.Second); e != 1 {
		t.Fatalf("perfect scaling efficiency = %v, want 1", e)
	}
	// No scaling: time unchanged -> tau = 0.5.
	if e := Efficiency(2, 10*time.Second, 4, 10*time.Second); e != 0.5 {
		t.Fatalf("no-scaling efficiency = %v, want 0.5", e)
	}
	if e := Efficiency(1, time.Second, 0, 0); e != 0 {
		t.Fatalf("degenerate efficiency = %v, want 0", e)
	}
}
