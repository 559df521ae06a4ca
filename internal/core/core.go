package core

import (
	"fmt"
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/partition"
	"dinfomap/internal/trace"
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
	// CostModel converts measured work/traffic into modeled times; the
	// zero value means trace.DefaultCostModel().
	CostModel trace.CostModel
	// Journal, when non-nil, receives a per-rank event record for every
	// phase of every synchronized sweep (see package obs). It must have
	// at least P rank slots; nil disables journaling at zero cost.
	Journal *obs.Journal
	// Recorder, when non-nil, receives the raw wait-state events
	// (collective frame matches, barrier passages) of this process's
	// ranks. Run creates one itself when Journal is set and Recorder is
	// nil; RunRank (one rank per process) uses it as given, so a
	// multi-process child can record its rank's events and ship them to
	// the launcher.
	Recorder *mpi.Recorder
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
	if c.CostModel == (trace.CostModel{}) {
		c.CostModel = trace.DefaultCostModel()
	}
	return c
}

// Result reports a finished distributed run.
type Result struct {
	// Communities assigns each original vertex its final module (dense).
	Communities []int
	// NumModules is the number of final modules.
	NumModules int
	// NumEdges is the input graph's undirected edge count, so a caller
	// that never loaded the graph (the multi-process launcher) can
	// still report its size; the vertex count is len(Communities).
	NumEdges int
	// Codelength is the final global MDL in bits, exactly comparable to
	// the sequential algorithm's (same Eq. 3, same vertex term).
	Codelength float64
	// InitialCodelength is L of the all-singleton partition.
	InitialCodelength float64
	// MDLTrace[k] is the global MDL after outer iteration k (Figure 4).
	MDLTrace []float64
	// MergeRate[k] is the fraction of original vertices eliminated by
	// merging in outer iteration k (Figure 5).
	MergeRate []float64
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
	// Stage1Iterations / Stage2Iterations count synchronized sweeps.
	Stage1Iterations, Stage2Iterations int
	// CollectivesPerRound is the number of synchronizing calls
	// (collectives and Alltoallvs) a rank enters per synchronized round
	// of each stage; every rank enters the same calls.
	CollectivesPerRound obs.RoundCollectives

	// PerRankPhase[r] is rank r's measured stage-1 cost per phase (the
	// raw inputs behind PhaseModeled, before the max-over-ranks).
	PerRankPhase []PhaseCosts
	// PerRankStage2Phase[r] is rank r's stage-2 cost per phase (the
	// Figure-8 phases of the merged-level sweeps plus the refresh-round
	// and merge-shuffle spans); its Total is the rank's stage-2 cost.
	PerRankStage2Phase []PhaseCosts
	// PerRankWall1 / PerRankWall2 are each rank's host wall times per stage.
	PerRankWall1, PerRankWall2 []time.Duration
	// PerRankEvals[r] is rank r's delta-L evaluation count.
	PerRankEvals []int64
	// PerRankMinLabel[r] is rank r's count of minimum-label refusals,
	// stage 1 then stage 2 (see obs.MinLabelCounts).
	PerRankMinLabel [][2]obs.MinLabelCounts

	// PerRankIterations[r] is rank r's per-outer-iteration cost/traffic
	// slices (stage 1 is outer 0, each merged level adds one): cumulative
	// counters diffed at iteration boundaries, never reset. The final
	// full-assignment gather happens after the last iteration, so the
	// slices sum to slightly less than CommStats[r].
	PerRankIterations [][]obs.IterationReport
	// PerRankIngest[r] is rank r's ingest report when the ranks read an
	// edge-list file themselves (RunFile, RunRankFile); nil otherwise.
	PerRankIngest []*obs.IngestReport

	// CommStats is each rank's cumulative traffic.
	CommStats []mpi.Stats
	// WaitRecorder holds the run's raw wait-state events (collective
	// frame matches and barrier arrival/release times) for
	// critical-path analysis.
	// Non-nil only when the run journaled (Config.Journal set):
	// recording is kept out of benchmarked paths.
	WaitRecorder *mpi.Recorder
	// Transports holds each rank's wire-level transport counters on
	// multi-process runs (nil entries where a rank reported none; nil
	// slice on in-process runs, which have no wire).
	Transports []*mpi.TransportStats
	// PerRankPeakRSS[r] is rank r's peak resident set size in bytes on
	// multi-process runs; nil on in-process runs, whose ranks share one
	// process.
	PerRankPeakRSS []int64
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
		res := &Result{Communities: make([]int, n), NumModules: n, NumEdges: g.NumEdges()}
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

// runInProcess runs cfg.P goroutine ranks on src and assembles them.
func runInProcess(src source, cfg Config) (*Result, error) {
	runner := newRunState(src, &cfg)

	// Journaled runs also record raw wait-state events (anchored to the
	// journal epoch so they compare with span times) for the wait-state
	// and critical-path report sections.
	var runOpts []mpi.RunOpt
	rec := cfg.Recorder
	if rec == nil && cfg.Journal != nil {
		rec = mpi.NewRecorder(cfg.P, cfg.Journal.Epoch())
	}
	if rec != nil {
		runOpts = append(runOpts, mpi.WithRecorder(rec))
	}
	stats := mpi.Run(cfg.P, runner.rankMain, runOpts...)
	if err := runner.err(); err != nil {
		return nil, err
	}

	// Package each simulated rank's slots as an artifact and assemble —
	// the same path the multi-process driver takes with one artifact per
	// child process.
	backing := make([]RankArtifact, cfg.P)
	arts := make([]*RankArtifact, cfg.P)
	for r := range arts {
		runner.fillArtifact(&backing[r], r, stats[r])
		arts[r] = &backing[r]
	}
	res, err := Assemble(cfg, arts)
	if err != nil {
		return nil, fmt.Errorf("assembling in-process run: %w", err)
	}
	res.WaitRecorder = rec
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

// newRunState sizes the per-rank slots of a run of cfg on src.
func newRunState(src source, cfg *Config) *runState {
	return &runState{
		src: src, cfg: cfg,
		errs:               make([]error, cfg.P),
		perRankPart:        make([]partition.BalanceStats, cfg.P),
		perRankIngest:      make([]*obs.IngestReport, cfg.P),
		perRankPhase:       make([]PhaseCosts, cfg.P),
		perRankStage2Phase: make([]PhaseCosts, cfg.P),
		perRankWall1:       make([]time.Duration, cfg.P),
		perRankWall2:       make([]time.Duration, cfg.P),
		perRankEvals:       make([]int64, cfg.P),
		perRankMinLabel:    make([][2]obs.MinLabelCounts, cfg.P),
		perRankIters:       make([][]obs.IterationReport, cfg.P),
	}
}

// runState carries inputs and cross-rank outputs of one run. In-process
// runs share one across all simulated ranks; a multi-process rank has
// its own and only ever fills its slot. The output fields are written by
// rank 0 only (all ranks hold identical copies at the end, a property
// the tests assert).
type runState struct {
	src source
	cfg *Config

	// Per-rank slots; each rank writes only its own index. errs holds a
	// rank's input error (every rank reports the same one), perRankPart
	// the layout summary (identical on every rank), perRankIngest the
	// rank's ingest report (nil for in-memory inputs).
	errs               []error
	perRankPart        []partition.BalanceStats
	perRankIngest      []*obs.IngestReport
	perRankPhase       []PhaseCosts
	perRankStage2Phase []PhaseCosts
	perRankWall1       []time.Duration
	perRankWall2       []time.Duration
	perRankEvals       []int64
	perRankMinLabel    [][2]obs.MinLabelCounts
	perRankIters       [][]obs.IterationReport

	out rankOutput
}

// err returns the first rank's input error, if any.
func (rs *runState) err() error {
	for _, err := range rs.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rankOutput is what rank 0 publishes back to Run (these values are
// identical on every rank by construction; tests assert this).
type rankOutput struct {
	communities              []int
	numEdges                 int
	mdlTrace                 []float64
	mergeRate                []float64
	initialL                 float64
	stage1Iters, stage2Iters int
	// roundSyncs counts the synchronizing calls of the round loops,
	// stage 1 then stage 2.
	roundSyncs [2]int64
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
