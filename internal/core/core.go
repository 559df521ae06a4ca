package core

import (
	"fmt"
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/partition"
)

// Config controls a distributed Infomap run.
type Config struct {
	// P is the number of simulated ranks. Must be >= 1.
	P int
	// DHigh is the delegate threshold: vertices with degree > DHigh are
	// duplicated on all ranks. <= 0 means the scaled default
	// max(P, 4*avgDegree); the paper's literal d_high = p assumes
	// Titan-scale processor counts (see Run). It is ignored at P = 1,
	// where no vertex is delegated.
	DHigh int
	// NoRebalance disables the partitioner's rebalancing pass (ablation).
	NoRebalance bool
	// NoMinLabel disables the minimum-label anti-bouncing rules — the
	// singleton and return rules of the sweep and the hub swap rule of
	// the delegate broadcast (ablation: demonstrates the vertex bouncing
	// problem of Section 3.4).
	NoMinLabel bool
	// ApproxDelegates applies delegate moves directly on the winning
	// local delta-L (the paper's literal scheme) instead of the exact
	// two-round evaluation; see broadcastDelegates. Ablation only.
	ApproxDelegates bool
	// NoDamping disables the probabilistic deferral of cross-boundary
	// moves that desynchronizes simultaneous over-merging (ablation).
	NoDamping bool
	// NoDedup disables the isSent deduplication of Module_Info messages
	// (ablation: reproduces the duplicated-information problem of
	// Figure 3 and measurably inflates communication volume).
	NoDedup bool
	// Theta is the outer-loop MDL improvement threshold; <= 0 means 1e-10.
	Theta float64
	// MaxOuterIterations bounds optimize+merge rounds; <= 0 means 25.
	MaxOuterIterations int
	// MaxSweeps bounds synchronized sweeps inside one clustering stage;
	// <= 0 means 100.
	MaxSweeps int
	// Seed randomizes per-rank vertex visit order.
	Seed uint64
	// Journal, when non-nil, receives a per-rank event record for every
	// phase of every synchronized sweep (see package obs), and its
	// recorder the ranks' raw wait-state events. It must have one rank
	// slot per rank (P); nil disables journaling at zero cost. A
	// multi-process rank (RunRank) journals into its own rank's slot.
	Journal *obs.Journal
}

func (c Config) withDefaults() Config {
	if c.P < 1 {
		c.P = 1
	}
	if c.Theta <= 0 {
		c.Theta = 1e-10
	}
	if c.MaxOuterIterations <= 0 {
		c.MaxOuterIterations = 25
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 100
	}
	return c
}

// Result reports a finished distributed run.
type Result struct {
	// RankOutput is rank 0's output section: the final modules
	// (Communities, renumbered dense), the graph's size and total
	// weight (so a caller that never loaded the graph, the
	// multi-process launcher, can still report them; the vertex count
	// is len(Communities)), the initial codelength, the MDL trace
	// (Figure 4), the merge-rate trace (Figure 5) and the synchronized
	// sweep counts of both stages.
	RankOutput
	// NumModules is the number of final modules.
	NumModules int
	// Codelength is the final global MDL in bits, exactly comparable to
	// the sequential algorithm's (same Eq. 3, same vertex term).
	Codelength float64
	// OuterIterations counts optimize+merge rounds (stage 1 is round 0).
	OuterIterations int

	// Stage1Wall / Stage2Wall are real wall-clock times of the two
	// clustering stages (all ranks interleaved on the host).
	Stage1Wall, Stage2Wall time.Duration
	// Stage1Modeled / Stage2Modeled are the alpha-beta modeled times
	// (max per-rank work per phase; see package trace).
	Stage1Modeled, Stage2Modeled time.Duration
	// PhaseModeled breaks stage-1 modeled time into the Figure 8 phases.
	PhaseModeled map[string]time.Duration
	// CollectivesPerRound is the number of synchronizing calls
	// (collectives and Alltoallvs) a rank enters per synchronized round
	// of each stage; every rank enters the same calls.
	CollectivesPerRound obs.RoundCollectives

	// Ranks[r] is rank r's artifact: its measured costs per phase, host
	// walls, evaluation and minimum-label counts, per-outer-iteration
	// slices, ingest report, traffic, and on multi-process runs its
	// transport counters and peak RSS. Ranks[0].Output.Communities is
	// Communities itself. Nil when Run answers an empty or edgeless
	// graph without running ranks.
	Ranks []*RankArtifact
	// CommStats is each rank's cumulative traffic (Ranks[r].Stats).
	CommStats []mpi.Stats
	// MaxRankBytes is the largest per-rank total byte count.
	MaxRankBytes int64
	// DeltaEvaluations is the global number of delta-L evaluations.
	DeltaEvaluations int64
	// Partition summarizes the delegate layout used (Figures 6-7).
	Partition partition.BalanceStats
}

// TotalModeled is the modeled end-to-end clustering time (both stages).
func (r *Result) TotalModeled() time.Duration { return r.Stage1Modeled + r.Stage2Modeled }

// Run executes the distributed Infomap algorithm on g with cfg.P
// simulated ranks and returns the combined result. Each rank cuts its
// own rows out of g and preprocesses them like a rank that never saw
// the rest of the graph (see preprocess).
func Run(g *graph.Graph, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	//dinfomap:float-ok exact emptiness guard: weight is a sum of strictly positive addends
	if n == 0 || g.TotalWeight() == 0 {
		res := &Result{
			RankOutput: RankOutput{Communities: make([]int, n), NumEdges: g.NumEdges(), TotalWeight: g.TotalWeight()},
			NumModules: n,
		}
		for u := range res.Communities {
			res.Communities[u] = u
		}
		return res
	}
	res, err := runInProcess(source{g: g}, cfg)
	if err != nil {
		panicf("in-process run: %v", err)
	}
	return res
}

// RunFile is Run on the edge-list file at path without building the
// graph: each simulated rank reads its 1/P of the file (see
// ingestFile), exactly as the ranks of a multi-process run do, so the
// two report the same deterministic counters. A malformed file fails
// every rank with the same line-numbered error. The partition equals
// Run's on the graph graph.ReadEdgeList builds from the file.
func RunFile(path string, cfg Config) (*Result, error) {
	return runInProcess(source{path: path}, cfg.withDefaults())
}

// runInProcess runs cfg.P goroutine ranks on src and assembles their
// artifacts — the same path the multi-process driver takes with one
// artifact per child process. A journaled run also records the ranks'
// raw wait-state events into the journal's recorder, for the
// wait-state and critical-path report sections.
func runInProcess(src source, cfg Config) (*Result, error) {
	arts := make([]*RankArtifact, cfg.P)
	errs := make([]error, cfg.P)
	runStart := forcedCycles()
	mpi.Run(cfg.P, func(c *mpi.Comm) {
		arts[c.Rank()], errs[c.Rank()] = rankMain(c, src, cfg, runStart)
	}, mpi.WithRecorder(cfg.Journal.Recorder()))
	// Every rank reports the same input error; return rank 0's.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res, err := Assemble(cfg, arts)
	if err != nil {
		return nil, fmt.Errorf("assembling in-process run: %w", err)
	}
	return res, nil
}

// source is where the ranks' rows come from: an in-memory graph each
// rank cuts its rows from, or an edge-list file each rank reads its
// part of.
type source struct {
	g    *graph.Graph
	path string
}

// rows returns rank c's rows, and the ingest report when they came
// from a file.
func (src source) rows(c *mpi.Comm, sb *mpi.SendBuffers) (*graph.Rows, *obs.IngestReport, error) {
	if src.g != nil {
		return src.g.Rows(c.Rank(), c.Size()), nil, nil
	}
	return ingestFile(c, src.path, sb)
}

func ownerOf(v, p int) int { return v % p }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func checkf(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("core: internal invariant violated: "+format, args...))
	}
}

// panicf is checkf's cold half for hot loops: guarding with a plain
// comparison and calling panicf only on failure keeps the ...any
// arguments from being boxed on every iteration the check passes.
func panicf(format string, args ...any) {
	panic(fmt.Sprintf("core: internal invariant violated: "+format, args...))
}
