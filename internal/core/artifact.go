package core

import (
	"fmt"
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/partition"
)

// RankArtifact is everything one rank contributes to a Result. The
// in-process Run produces one per simulated rank directly from its
// shared runState; the multi-process driver has each child process
// serialize its artifact as JSON and the parent Assemble them. Every
// field is plain data — no live handles — so an artifact round-trips
// through encoding/json unchanged.
type RankArtifact struct {
	Rank  int       `json:"rank"`
	Stats mpi.Stats `json:"stats"`

	// Phase / Stage2Phase are the rank's measured costs per phase in
	// stage 1 and stage 2.
	Phase       PhaseCosts `json:"phase"`
	Stage2Phase PhaseCosts `json:"stage2_phase"`

	Wall1Ns int64 `json:"wall1_ns"`
	Wall2Ns int64 `json:"wall2_ns"`
	Evals   int64 `json:"evals"`

	// MinLabel counts the rank's minimum-label refusals, stage 1 then
	// stage 2.
	MinLabel [2]obs.MinLabelCounts `json:"min_label"`

	Iterations []obs.IterationReport `json:"iterations,omitempty"`

	// Partition is the delegate-layout balance summary. Every rank
	// derives the identical summary during preprocessing, so every
	// artifact carries the same value; shipping it here spares Assemble
	// from re-running the partitioner.
	Partition partition.BalanceStats `json:"partition"`

	// Ingest reports the rank's share of reading an edge-list file; nil
	// when the rank cut its rows from an in-memory graph.
	Ingest *obs.IngestReport `json:"ingest,omitempty"`

	// Output holds the rank-identical algorithm outputs; only rank 0's
	// artifact carries it (mirroring runState.out).
	Output *RankOutput `json:"output,omitempty"`

	// Transport carries the rank's wire-level counters when the rank
	// ran over a transport that has a wire (the multi-process mesh);
	// nil for in-process transports.
	Transport *mpi.TransportStats `json:"transport,omitempty"`

	// Telemetry carries the rank's journal events and raw wait records
	// when a multi-process run is observed; nil otherwise.
	Telemetry *obs.RankTelemetry `json:"telemetry,omitempty"`

	// PeakRSSBytes is the rank process's peak resident set size, as
	// getrusage reports it when the rank is done; 0 when the rank is
	// not a process of its own.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// RankOutput is the algorithm's result proper: identical on every rank
// by construction, published once via rank 0's artifact.
type RankOutput struct {
	Communities       []int     `json:"communities"`
	NumEdges          int       `json:"num_edges"`
	MDLTrace          []float64 `json:"mdl_trace"`
	MergeRate         []float64 `json:"merge_rate"`
	InitialCodelength float64   `json:"initial_codelength"`
	Stage1Iterations  int       `json:"stage1_iterations"`
	Stage2Iterations  int       `json:"stage2_iterations"`
	// RoundSyncs counts the synchronizing calls of the round loops,
	// stage 1 then stage 2.
	RoundSyncs [2]int64 `json:"round_syncs"`
}

// RunRank executes one rank of the distributed algorithm over an
// explicit transport and returns this rank's artifact. The rank cuts
// its own rows out of g and preprocesses them with the other ranks
// exactly as Run's simulated ranks do. cfg.P must equal t.Size().
//
// The algorithm body is the same rankMain that Run executes, so a
// partition assembled from RunRank artifacts is bit-identical to the
// in-process result for the same graph, config, and seed.
//
// Unlike Run, RunRank cannot serve the degenerate empty graph (there is
// no rank program to run); callers handle that case locally the way Run
// does. Journaling (cfg.Journal) works per process; cfg.Recorder, when
// set, records this process's raw wait events (the launcher merges each
// child's records into a cross-rank view). Transports that expose
// wire-level counters (the multi-process mesh's Telemetry method) have
// them snapshotted into the artifact.
func RunRank(g *graph.Graph, cfg Config, t mpi.Transport) (*RankArtifact, error) {
	//dinfomap:float-ok exact emptiness guard: weight is a sum of strictly positive addends
	if g.NumVertices() == 0 || g.TotalWeight() == 0 {
		return nil, fmt.Errorf("core: RunRank needs a non-empty graph")
	}
	return runRank(source{g: g}, cfg, t)
}

// RunRankFile is RunRank for the edge-list file at path: the rank reads
// only its 1/P of the file and never builds the graph (see ingestFile).
// A malformed file fails every rank with the same line-numbered error.
func RunRankFile(path string, cfg Config, t mpi.Transport) (*RankArtifact, error) {
	return runRank(source{path: path}, cfg, t)
}

func runRank(src source, cfg Config, t mpi.Transport) (*RankArtifact, error) {
	cfg = cfg.withDefaults()
	if t.Size() != cfg.P {
		return nil, fmt.Errorf("core: RunRank config has P=%d but transport world has %d ranks", cfg.P, t.Size())
	}
	runner := newRunState(src, &cfg)
	stats, err := mpi.RunRank(t, cfg.Recorder, runner.rankMain)
	if err != nil {
		return nil, err
	}
	if err := runner.err(); err != nil {
		return nil, err
	}
	art := runner.artifact(t.Rank(), stats)
	type telemeter interface{ Telemetry() *mpi.TransportStats }
	if tm, ok := t.(telemeter); ok {
		art.Transport = tm.Telemetry()
	}
	return art, nil
}

// Assemble combines one artifact per rank into the full Result. It is
// the single assembly path: Run feeds it the artifacts of its simulated
// ranks, and the multi-process driver feeds it the decoded artifacts of
// its child processes. artifacts[r] must be rank r's.
func Assemble(cfg Config, artifacts []*RankArtifact) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(artifacts) != cfg.P {
		return nil, fmt.Errorf("core: Assemble got %d artifacts for a %d-rank config", len(artifacts), cfg.P)
	}
	for r, a := range artifacts {
		if a == nil {
			return nil, fmt.Errorf("core: Assemble missing the artifact of rank %d", r)
		}
		if a.Rank != r {
			return nil, fmt.Errorf("core: artifact at position %d reports rank %d", r, a.Rank)
		}
	}
	o := artifacts[0].Output
	if o == nil {
		return nil, fmt.Errorf("core: rank 0 artifact carries no output section")
	}

	res := &Result{}
	dense, k := graph.Renumber(o.Communities)
	res.Communities = dense
	res.NumModules = k
	res.NumEdges = o.NumEdges
	res.MDLTrace = o.MDLTrace
	res.MergeRate = o.MergeRate
	res.InitialCodelength = o.InitialCodelength
	if len(o.MDLTrace) > 0 {
		res.Codelength = o.MDLTrace[len(o.MDLTrace)-1]
	}
	res.OuterIterations = len(o.MDLTrace)
	res.Stage1Iterations = o.Stage1Iterations
	res.Stage2Iterations = o.Stage2Iterations
	res.CollectivesPerRound = obs.RoundCollectives{
		Stage1: perRound(o.RoundSyncs[0], o.Stage1Iterations),
		Stage2: perRound(o.RoundSyncs[1], o.Stage2Iterations),
	}
	res.Partition = artifacts[0].Partition

	// Publish the raw per-rank measurements (telemetry consumers build
	// the JSON run report from these).
	res.PerRankPhase = make([]PhaseCosts, cfg.P)
	res.PerRankStage2Phase = make([]PhaseCosts, cfg.P)
	res.PerRankWall1 = make([]time.Duration, cfg.P)
	res.PerRankWall2 = make([]time.Duration, cfg.P)
	res.PerRankEvals = make([]int64, cfg.P)
	res.PerRankMinLabel = make([][2]obs.MinLabelCounts, cfg.P)
	res.PerRankIterations = make([][]obs.IterationReport, cfg.P)
	res.CommStats = make([]mpi.Stats, cfg.P)
	for r, a := range artifacts {
		if a.Ingest != nil {
			if res.PerRankIngest == nil {
				res.PerRankIngest = make([]*obs.IngestReport, cfg.P)
			}
			res.PerRankIngest[r] = a.Ingest
		}
		if a.Transport != nil {
			if res.Transports == nil {
				res.Transports = make([]*mpi.TransportStats, cfg.P)
			}
			res.Transports[r] = a.Transport
		}
		if a.PeakRSSBytes != 0 {
			if res.PerRankPeakRSS == nil {
				res.PerRankPeakRSS = make([]int64, cfg.P)
			}
			res.PerRankPeakRSS[r] = a.PeakRSSBytes
		}
		res.PerRankPhase[r] = a.Phase
		res.PerRankStage2Phase[r] = a.Stage2Phase
		res.PerRankWall1[r] = time.Duration(a.Wall1Ns)
		res.PerRankWall2[r] = time.Duration(a.Wall2Ns)
		res.PerRankEvals[r] = a.Evals
		res.PerRankMinLabel[r] = a.MinLabel
		res.PerRankIterations[r] = a.Iterations
		res.CommStats[r] = a.Stats
		if b := a.Stats.TotalBytes(); b > res.MaxRankBytes {
			res.MaxRankBytes = b
		}
		// Wall times: the slowest rank gates each stage.
		if res.PerRankWall1[r] > res.Stage1Wall {
			res.Stage1Wall = res.PerRankWall1[r]
		}
		if res.PerRankWall2[r] > res.Stage2Wall {
			res.Stage2Wall = res.PerRankWall2[r]
		}
		res.DeltaEvaluations += a.Evals
	}

	// Modeled times: per phase, take the slowest rank's accumulated
	// cost (the bulk-synchronous steps are gated by the slowest rank;
	// aggregating at stage granularity is accurate because delegate
	// partitioning keeps ranks balanced within each iteration).
	model := cfg.CostModel
	res.PhaseModeled = make(map[string]time.Duration, stage1Phases)
	for ph := obs.PhaseID(0); ph < stage1Phases; ph++ {
		var worst time.Duration
		for _, a := range artifacts {
			if t := model.Time(a.Phase[ph]); t > worst {
				worst = t
			}
		}
		res.PhaseModeled[ph.Name()] = worst
		res.Stage1Modeled += worst
	}
	for _, a := range artifacts {
		if t := model.Time(a.Stage2Phase.Total()); t > res.Stage2Modeled {
			res.Stage2Modeled = t
		}
	}
	return res, nil
}

// perRound returns calls/rounds, 0 for a stage without rounds.
func perRound(calls int64, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	return float64(calls) / float64(rounds)
}

// fillArtifact packages rank r's slots of this runState into a; rank
// 0's identical outputs ride along. Filling in place lets Run lay out
// its P artifacts in one backing array instead of one allocation each.
func (rs *runState) fillArtifact(a *RankArtifact, rank int, stats mpi.Stats) {
	*a = RankArtifact{
		Rank:        rank,
		Stats:       stats,
		Phase:       rs.perRankPhase[rank],
		Stage2Phase: rs.perRankStage2Phase[rank],
		Wall1Ns:     rs.perRankWall1[rank].Nanoseconds(),
		Wall2Ns:     rs.perRankWall2[rank].Nanoseconds(),
		Evals:       rs.perRankEvals[rank],
		MinLabel:    rs.perRankMinLabel[rank],
		Iterations:  rs.perRankIters[rank],
		Partition:   rs.perRankPart[rank],
		Ingest:      rs.perRankIngest[rank],
	}
	if rank == 0 {
		o := &rs.out
		a.Output = &RankOutput{
			Communities:       o.communities,
			NumEdges:          o.numEdges,
			MDLTrace:          o.mdlTrace,
			MergeRate:         o.mergeRate,
			InitialCodelength: o.initialL,
			Stage1Iterations:  o.stage1Iters,
			Stage2Iterations:  o.stage2Iters,
			RoundSyncs:        o.roundSyncs,
		}
	}
}

// artifact is fillArtifact's allocating form, used by RunRank where a
// process produces exactly one artifact.
func (rs *runState) artifact(rank int, stats mpi.Stats) *RankArtifact {
	a := &RankArtifact{}
	rs.fillArtifact(a, rank, stats)
	return a
}
