package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/launch"
	"dinfomap/internal/trace"
)

// measuredWall is the run's end-to-end measured time: the slowest
// rank's stage-1 wall plus the slowest rank's stage-2 wall.
func measuredWall(res *core.Result) time.Duration {
	return res.Stage1Wall + res.Stage2Wall
}

// ---- Measured speedup and alpha-beta model validation ----

// SpeedupRow is one processor count's measured-vs-modeled data point.
type SpeedupRow struct {
	Dataset        string        `json:"dataset"`
	P              int           `json:"p"`
	Wall           time.Duration `json:"wall_ns"`    // measured, min over reps
	Modeled        time.Duration `json:"modeled_ns"` // default cost-model constants
	Fitted         time.Duration `json:"fitted_ns"`  // fitted constants on the same counters
	Ops            int64         `json:"ops"`        // critical-rank compute operations
	Msgs           int64         `json:"msgs"`       // critical-rank messages
	Bytes          int64         `json:"bytes"`      // critical-rank bytes
	Speedup        float64       `json:"speedup"`    // wall(p=1) / wall(p)
	ModeledSpeedup float64       `json:"modeled_speedup"`
}

// SpeedupFit holds the alpha-beta constants fitted from measured walls
// by least squares over the processor sweep, plus the fit error.
type SpeedupFit struct {
	TOpNs         float64 `json:"t_op_ns"`
	AlphaNs       float64 `json:"alpha_ns"`
	BetaNsPerByte float64 `json:"beta_ns_per_byte"`
	MaxRelErr     float64 `json:"max_rel_err"` // max |fitted - measured| / measured
}

// SpeedupResult bundles the sweep rows with the fitted constants.
type SpeedupResult struct {
	Rows []SpeedupRow `json:"rows"`
	Fit  SpeedupFit   `json:"fit"`
}

// RunSpeedup validates the alpha-beta cost model against measured
// multi-process speedup: the same graph is clustered with one OS
// process per rank (launch.Run) at p = 1..N, the measured walls are
// least-squares fitted to wall ~= t_op*ops + alpha*msgs + beta*bytes
// using each run's critical-rank counters, and the fitted curve is
// reported next to the default-constant modeled curve. The point is
// the shape comparison — absolute constants absorb host speed, socket
// stack, and scheduler noise of the machine that ran the sweep. The
// calling binary must call launch.ServeChild first thing in main.
func RunSpeedup(o Options, dataset string, ps []int) (*SpeedupResult, error) {
	o = o.withDefaults()
	if dataset == "" {
		dataset = "amazon"
	}
	if len(ps) == 0 {
		ps = []int{1, 2, 3, 4}
	}
	const reps = 3
	in := launch.Input{Dataset: dataset, Scale: o.Scale, SeedOffset: o.Seed}
	out := &SpeedupResult{}
	for _, p := range ps {
		var best *core.Result
		var bestWall time.Duration
		for rep := 0; rep < reps; rep++ {
			res, _, err := launch.Run(launch.Spec{Input: in, P: p, Seed: o.Seed + 12})
			if err != nil {
				return nil, fmt.Errorf("p=%d: %w", p, err)
			}
			if w := measuredWall(res); best == nil || w < bestWall {
				best, bestWall = res, w
			}
		}
		crit := criticalRankCost(best)
		out.Rows = append(out.Rows, SpeedupRow{
			Dataset: dataset,
			P:       p,
			Wall:    bestWall,
			Modeled: best.TotalModeled(),
			Ops:     crit.Ops,
			Msgs:    crit.Msgs,
			Bytes:   crit.Bytes,
		})
	}
	out.Fit = fitCostModel(out.Rows)
	base := out.Rows[0]
	for i := range out.Rows {
		r := &out.Rows[i]
		fitted := float64(r.Ops)*out.Fit.TOpNs + float64(r.Msgs)*out.Fit.AlphaNs + float64(r.Bytes)*out.Fit.BetaNsPerByte
		r.Fitted = time.Duration(fitted)
		if r.Wall > 0 {
			r.Speedup = float64(base.Wall) / float64(r.Wall)
			rel := math.Abs(fitted-float64(r.Wall)) / float64(r.Wall)
			if rel > out.Fit.MaxRelErr {
				out.Fit.MaxRelErr = rel
			}
		}
		if r.Modeled > 0 {
			r.ModeledSpeedup = float64(base.Modeled) / float64(r.Modeled)
		}
	}
	return out, nil
}

// criticalRankCost sums each rank's per-phase counters across both
// stages and returns the componentwise maximum over ranks — the
// bulk-synchronous critical-path approximation the cost model uses.
func criticalRankCost(res *core.Result) trace.RankCost {
	var crit trace.RankCost
	for _, a := range res.Ranks {
		c := a.Phase.Total()
		c.Add(a.Stage2Phase.Total())
		if c.Ops > crit.Ops {
			crit.Ops = c.Ops
		}
		if c.Msgs > crit.Msgs {
			crit.Msgs = c.Msgs
		}
		if c.Bytes > crit.Bytes {
			crit.Bytes = c.Bytes
		}
	}
	return crit
}

// fitCostModel solves the 3x3 normal equations of the least-squares
// fit wall = t_op*ops + alpha*msgs + beta*bytes over the sweep rows.
// Negative components (possible with few points and correlated
// predictors) are clamped to zero.
func fitCostModel(rows []SpeedupRow) SpeedupFit {
	var a [3][3]float64
	var b [3]float64
	for _, r := range rows {
		x := [3]float64{float64(r.Ops), float64(r.Msgs), float64(r.Bytes)}
		y := float64(r.Wall)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += x[i] * x[j]
			}
			b[i] += x[i] * y
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 3; col++ {
		piv := col
		for row := col + 1; row < 3; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[piv][col]) {
				piv = row
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if math.Abs(a[col][col]) < 1e-12 {
			continue // degenerate predictor; leaves its coefficient 0
		}
		for row := col + 1; row < 3; row++ {
			f := a[row][col] / a[col][col]
			for j := col; j < 3; j++ {
				a[row][j] -= f * a[col][j]
			}
			b[row] -= f * b[col]
		}
	}
	var x [3]float64
	for i := 2; i >= 0; i-- {
		if math.Abs(a[i][i]) < 1e-12 {
			continue
		}
		s := b[i]
		for j := i + 1; j < 3; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	for i := range x {
		if x[i] < 0 {
			x[i] = 0
		}
	}
	return SpeedupFit{TOpNs: x[0], AlphaNs: x[1], BetaNsPerByte: x[2]}
}

// FormatSpeedup renders the measured-vs-modeled speedup table and the
// fitted constants.
func FormatSpeedup(w io.Writer, res *SpeedupResult) {
	writeHeader(w, "Speedup: measured multi-process wall vs alpha-beta model")
	fmt.Fprintf(w, "%-10s %3s %12s %12s %12s %9s %9s %12s %8s %12s\n",
		"Dataset", "p", "measured", "fitted", "modeled", "speedup", "modeled-s", "ops", "msgs", "bytes")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %3d %12s %12s %12s %8.2fx %8.2fx %12d %8d %12d\n",
			r.Dataset, r.P,
			r.Wall.Round(time.Microsecond), r.Fitted.Round(time.Microsecond),
			r.Modeled.Round(time.Microsecond),
			r.Speedup, r.ModeledSpeedup, r.Ops, r.Msgs, r.Bytes)
	}
	fmt.Fprintf(w, "fitted constants: t_op=%.1fns  alpha=%.0fns  beta=%.3fns/B  (defaults 50/2000/1; max rel err %.0f%%)\n",
		res.Fit.TOpNs, res.Fit.AlphaNs, res.Fit.BetaNsPerByte, 100*res.Fit.MaxRelErr)
}
