// Package trace holds the cost model behind the paper's performance
// figures: an explicit alpha-beta communication model that converts
// measured per-rank work and traffic into modeled execution times.
//
// Why a model: the paper ran on Titan with up to 4,096 physical cores.
// Its scalability claims reduce to statements about the *maximum
// per-rank* computation and communication, which the core measures
// exactly from the real distributed execution; the model turns those
// counts into time with fixed machine constants (see DESIGN.md,
// substitution table). It is a predictor, not a clock: measured walls
// come from the multi-process transport and the bench harness.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// CostModel converts measured counts into modeled times. The defaults
// are calibrated to commodity-cluster constants: ~50 ns per delta-L
// evaluation class operation (a handful of map lookups plus floating-
// point log2 work), 2 us message latency (alpha), and 1 ns per byte
// (beta, ~1 GB/s effective bandwidth). Note the reproduction's datasets
// are ~1000x smaller than the paper's, so the compute/communication
// ratio at a given processor count is correspondingly less favorable;
// experiments therefore sweep smaller processor counts than Titan's.
type CostModel struct {
	TimePerOp   time.Duration // compute cost per counted operation
	Alpha       time.Duration // per-message latency
	BetaPerByte time.Duration // per-byte transfer cost
}

// DefaultCostModel returns the constants used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		TimePerOp:   50 * time.Nanosecond,
		Alpha:       2 * time.Microsecond,
		BetaPerByte: time.Nanosecond,
	}
}

// RankCost is one rank's measured work and traffic for one phase or one
// whole run.
type RankCost struct {
	Ops   int64 `json:"ops"`   // counted compute operations
	Msgs  int64 `json:"msgs"`  // messages sent (p2p + modeled collective steps)
	Bytes int64 `json:"bytes"` // bytes sent (p2p + modeled collective payloads)
}

// Add accumulates o into c.
func (c *RankCost) Add(o RankCost) {
	c.Ops += o.Ops
	c.Msgs += o.Msgs
	c.Bytes += o.Bytes
}

// Time returns the modeled time of this rank's cost under m.
func (m CostModel) Time(c RankCost) time.Duration {
	return time.Duration(c.Ops)*m.TimePerOp +
		time.Duration(c.Msgs)*m.Alpha +
		time.Duration(c.Bytes)*m.BetaPerByte
}

// StepTime returns the modeled time of one bulk-synchronous step in
// which every rank computes and communicates: the slowest rank gates
// everyone (the paper: "the communication cost is mostly determined by
// the slowest part").
func (m CostModel) StepTime(costs []RankCost) time.Duration {
	var worst time.Duration
	for _, c := range costs {
		if t := m.Time(c); t > worst {
			worst = t
		}
	}
	return worst
}

// Breakdown is the Figure 8 result for one processor count: modeled time
// of each phase, max across ranks.
type Breakdown struct {
	P      int
	Phases map[string]time.Duration
}

// Total returns the sum over phases.
func (b Breakdown) Total() time.Duration {
	var sum time.Duration
	for _, d := range b.Phases {
		sum += d
	}
	return sum
}

// FormatBreakdowns renders breakdowns as a fixed-width text table with
// one row per processor count and one column per phase, matching the
// series of Figure 8.
func FormatBreakdowns(bs []Breakdown, phases []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s", "p")
	for _, ph := range phases {
		fmt.Fprintf(&sb, "%18s", ph)
	}
	fmt.Fprintf(&sb, "%18s\n", "Total")
	for _, b := range bs {
		fmt.Fprintf(&sb, "%-6d", b.P)
		for _, ph := range phases {
			fmt.Fprintf(&sb, "%18s", b.Phases[ph].Round(time.Microsecond))
		}
		fmt.Fprintf(&sb, "%18s\n", b.Total().Round(time.Microsecond))
	}
	return sb.String()
}

// Efficiency computes the relative parallel efficiency of Figure 10:
// tau = p1*T(p1) / (p2*T(p2)) with p1 the baseline processor count.
func Efficiency(p1 int, t1 time.Duration, p2 int, t2 time.Duration) float64 {
	if p2 == 0 || t2 == 0 {
		return 0
	}
	return float64(p1) * float64(t1) / (float64(p2) * float64(t2))
}
