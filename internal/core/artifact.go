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

// RankArtifact is everything one rank contributes to a Result, and the
// only per-rank record of a run: each rank fills its own while it runs,
// the in-process Run assembles its simulated ranks' artifacts, and the
// multi-process driver has each child process serialize its artifact
// as JSON and the parent Assemble them. The Result keeps them
// (Result.Ranks). Every field is plain data — no live handles — so an
// artifact round-trips through encoding/json unchanged.
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
	// artifact carries it.
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
	Communities []int `json:"communities"`
	NumEdges    int   `json:"num_edges"`
	// TotalWeight is the graph's total edge weight, summed in vertex id
	// order exactly as graph.Graph.TotalWeight sums it.
	TotalWeight       float64   `json:"total_weight"`
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
// does. Journaling (cfg.Journal) works per process: the rank journals
// its events and records its raw wait events in the journal's recorder
// (the launcher merges each child's records into a cross-rank view).
// Transports that expose wire-level counters (the multi-process mesh's
// Telemetry method) have them snapshotted into the artifact.
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
	var art *RankArtifact
	var rankErr error
	if _, err := mpi.RunRank(t, cfg.Journal.Recorder(), func(c *mpi.Comm) {
		art, rankErr = rankMain(c, src, cfg)
	}); err != nil {
		return nil, err
	}
	if rankErr != nil {
		return nil, rankErr
	}
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

	// The dense renumbering replaces rank 0's array, so the Result holds
	// one community array. Renumbering is idempotent: assembling the
	// same artifacts again gives the same result.
	var numModules int
	o.Communities, numModules = graph.Renumber(o.Communities)
	res := &Result{RankOutput: *o, NumModules: numModules, Ranks: artifacts}
	if len(o.MDLTrace) > 0 {
		res.Codelength = o.MDLTrace[len(o.MDLTrace)-1]
	}
	res.OuterIterations = len(o.MDLTrace)
	res.CollectivesPerRound = obs.RoundCollectives{
		Stage1: perRound(o.RoundSyncs[0], o.Stage1Iterations),
		Stage2: perRound(o.RoundSyncs[1], o.Stage2Iterations),
	}
	res.Partition = artifacts[0].Partition

	res.CommStats = make([]mpi.Stats, cfg.P)
	for r, a := range artifacts {
		res.CommStats[r] = a.Stats
		res.MaxRankBytes = max(res.MaxRankBytes, a.Stats.TotalBytes())
		// Wall times: the slowest rank gates each stage.
		res.Stage1Wall = max(res.Stage1Wall, time.Duration(a.Wall1Ns))
		res.Stage2Wall = max(res.Stage2Wall, time.Duration(a.Wall2Ns))
		res.DeltaEvaluations += a.Evals
	}

	// Modeled times: per phase, take the slowest rank's accumulated
	// cost (the bulk-synchronous steps are gated by the slowest rank;
	// aggregating at stage granularity is accurate because delegate
	// partitioning keeps ranks balanced within each iteration).
	model := trace.DefaultCostModel()
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
