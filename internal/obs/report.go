package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"dinfomap/internal/mpi"
	"dinfomap/internal/trace"
)

// ReportSchema identifies the run-report JSON schema. Bump the suffix
// when a field changes meaning or is removed; adding fields is
// backward-compatible and does not bump it.
const ReportSchema = "dinfomap-run-report/v2"

// PhaseCost is one rank's measured work and traffic for one phase.
type PhaseCost = trace.RankCost

// ByKindFromStats keys the per-kind buckets of an mpi.Stats snapshot
// by stable kind name for the report. All-zero kinds
// are omitted, so reports stay compact and adding future kinds does not
// perturb existing output. encoding/json writes map keys sorted, so the
// field is deterministic.
func ByKindFromStats(s mpi.Stats) map[string]mpi.KindStats {
	out := make(map[string]mpi.KindStats)
	for k, ks := range s.ByKind {
		if ks == (mpi.KindStats{}) {
			continue
		}
		out[mpi.Kind(k).String()] = ks
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// IterationReport is one rank's cost/traffic slice for one outer
// iteration (stage 1 is outer 0; each merged level adds one). Comm
// fields are the iteration's delta of the cumulative counters
// (Stats.Sub of boundary snapshots), not running totals.
type IterationReport struct {
	Outer  int   `json:"outer"`
	Stage  int   `json:"stage"`  // 1 = delegate stage, 2 = merged levels
	Sweeps int   `json:"sweeps"` // synchronized sweeps in the iteration
	Ops    int64 `json:"ops"`    // counted work within the iteration
	WallNs int64 `json:"wall_ns"`
	// Comm is this iteration's traffic delta for the rank.
	Comm mpi.KindStats `json:"comm"`
	// CommByKind splits Comm by message kind (absent when empty).
	CommByKind map[string]mpi.KindStats `json:"comm_by_kind,omitempty"`
}

// CommsReport is the run-level communication rollup: totals and per-
// kind splits summed over ranks.
type CommsReport struct {
	Totals mpi.KindStats `json:"totals"`
	// ByKind is keyed by stable kind name; kinds with no traffic are
	// omitted.
	ByKind map[string]mpi.KindStats `json:"by_kind,omitempty"`
}

// BuildComms sums per-rank cumulative stats into the run-level rollup.
func BuildComms(stats []mpi.Stats) *CommsReport {
	if len(stats) == 0 {
		return nil
	}
	var sum mpi.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	return &CommsReport{Totals: sum.KindStats, ByKind: ByKindFromStats(sum)}
}

// RankReport is one rank's contribution to the run report.
type RankReport struct {
	Rank int `json:"rank"`
	// Phases holds the stage-1 per-phase measured cost, keyed by the
	// Figure-8 phase names plus the refresh-round1/refresh-round2
	// stage-internal spans.
	Phases map[string]PhaseCost `json:"phases"`
	// Stage2 is the rank's total stage-2 cost (all merged levels).
	Stage2 PhaseCost `json:"stage2"`
	// Stage2Phases breaks Stage2 into phases, including merge-shuffle;
	// absent when the run never merged.
	Stage2Phases map[string]PhaseCost `json:"stage2_phases,omitempty"`
	// PhaseWallNs is the rank's measured journal wall time per span
	// name, both stages combined. Only present when the run journaled;
	// unlike the modeled times it includes host-side scheduling noise.
	PhaseWallNs map[string]int64 `json:"phase_wall_ns,omitempty"`
	Wall1Ns     int64            `json:"wall1_ns"`
	Wall2Ns     int64            `json:"wall2_ns"`
	DeltaEvals  int64            `json:"delta_evals"`
	Comm        mpi.KindStats    `json:"comm"`
	// CommByKind splits Comm by message kind.
	CommByKind map[string]mpi.KindStats `json:"comm_by_kind,omitempty"`
	// Iterations are the rank's per-outer-iteration cost/traffic slices
	// in outer order.
	Iterations []IterationReport `json:"iterations,omitempty"`
	// Transport carries the rank's wire-level counters on multi-process
	// runs (frames/bytes per peer, connect retries, handshake latency,
	// poison events); absent on in-process runs, which have no wire.
	Transport *mpi.TransportStats `json:"transport,omitempty"`
	// Ingest reports the rank's share of reading an edge-list file when
	// the ranks read it themselves; absent when the ranks cut their
	// rows from an in-memory graph.
	Ingest *IngestReport `json:"ingest,omitempty"`
	// PeakRSSBytes is the rank process's peak resident set size on
	// multi-process runs; absent on in-process runs, whose ranks share
	// one process.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// LiveBytes is the live heap after the rank's three phase-boundary
	// collections: after ingest, after preprocessing and after the
	// first merge (0 for a boundary the run never reached). An
	// in-process run's ranks share one heap, so there it is the
	// process's.
	LiveBytes [3]int64 `json:"live_bytes"`
}

// IngestReport is one rank's rank-local ingest: it parsed BytesRead
// bytes of the edge list (its line-aligned 1/p), routed ArcsSent arcs
// to other ranks and kept ArcsKept, in WallNs of measured wall time
// (parse, routing exchange and row build).
type IngestReport struct {
	BytesRead int64 `json:"bytes_read"`
	ArcsSent  int64 `json:"arcs_sent"`
	ArcsKept  int64 `json:"arcs_kept"`
	WallNs    int64 `json:"wall_ns"`
}

// GraphInfo summarizes the input graph.
type GraphInfo struct {
	Vertices    int     `json:"vertices"`
	Edges       int     `json:"edges"`
	TotalWeight float64 `json:"total_weight"`
}

// ConfigInfo records the run parameters that shape the result.
type ConfigInfo struct {
	P     int     `json:"p"`
	DHigh int     `json:"dhigh"`
	Seed  uint64  `json:"seed"`
	Theta float64 `json:"theta"`
}

// QualityInfo records the partition quality outputs.
type QualityInfo struct {
	Codelength        float64 `json:"codelength"`
	InitialCodelength float64 `json:"initial_codelength"`
	NumModules        int     `json:"num_modules"`
}

// ConvergenceInfo carries the per-iteration traces (Figures 4-5).
type ConvergenceInfo struct {
	// MDLTrace[k] is the global codelength after outer iteration k.
	MDLTrace []float64 `json:"mdl_trace"`
	// MergeRate[k] is the fraction of original vertices merged away in
	// outer iteration k.
	MergeRate       []float64 `json:"merge_rate"`
	OuterIterations int       `json:"outer_iterations"`
	Stage1Sweeps    int       `json:"stage1_sweeps"`
	Stage2Sweeps    int       `json:"stage2_sweeps"`
	// MinLabel[r] holds rank r's minimum-label refusals, stage 1 then
	// stage 2; deterministic.
	MinLabel [][2]MinLabelCounts `json:"min_label,omitempty"`
	// CollectivesPerRound is the synchronizing calls per synchronized
	// round of each stage; deterministic.
	CollectivesPerRound RoundCollectives `json:"collectives_per_round"`
}

// RoundCollectives is the number of synchronizing calls (collectives
// and Alltoallvs) a rank enters inside the clustering round loop,
// divided by the number of rounds, for each stage (0 for a stage
// without rounds).
type RoundCollectives struct {
	Stage1 float64 `json:"stage1"`
	Stage2 float64 `json:"stage2"`
}

// MinLabelCounts counts one rank's minimum-label refusals in one
// clustering stage: moves back into a remote-reached module refused by
// the return rule, and delegate moves dropped by the hub swap rule.
// Both are zero on one rank, where nothing is remote or delegated.
type MinLabelCounts struct {
	RefusedReturns int64 `json:"refused_returns"`
	SkippedSwaps   int64 `json:"skipped_swaps"`
}

// TimingInfo compares modeled (alpha-beta cost model) and host
// wall-clock times. Host walls measure all ranks interleaved on one
// machine, so only the modeled numbers speak to parallel scalability.
type TimingInfo struct {
	Stage1WallNs    int64            `json:"stage1_wall_ns"`
	Stage2WallNs    int64            `json:"stage2_wall_ns"`
	Stage1ModeledNs int64            `json:"stage1_modeled_ns"`
	Stage2ModeledNs int64            `json:"stage2_modeled_ns"`
	TotalModeledNs  int64            `json:"total_modeled_ns"`
	PhaseModeledNs  map[string]int64 `json:"phase_modeled_ns"`
	// PhaseWallNs is the measured journal wall time per span name,
	// max over ranks (the bulk-synchronous gate). Present only when the
	// run journaled.
	PhaseWallNs map[string]int64 `json:"phase_wall_ns,omitempty"`
	// RunWallNs is the journal-measured run wall (see RunWall): the
	// denominator of the critical path's coverage and of the lost
	// fraction. Present only when the run journaled.
	RunWallNs int64 `json:"run_wall_ns,omitempty"`
}

// PartitionInfo summarizes the delegate layout (Figures 6-7).
type PartitionInfo struct {
	NumHubs       int     `json:"num_hubs"`
	MinEdges      int     `json:"min_edges"`
	MaxEdges      int     `json:"max_edges"`
	MinGhosts     int     `json:"min_ghosts"`
	MaxGhosts     int     `json:"max_ghosts"`
	EdgeImbalance float64 `json:"edge_imbalance"`
}

// Report is the structured result of one distributed run: everything
// the text output of cmd/dinfomap prints, in machine-readable form,
// plus the full per-rank measurements.
type Report struct {
	Schema           string          `json:"schema"`
	Graph            GraphInfo       `json:"graph"`
	Config           ConfigInfo      `json:"config"`
	Quality          QualityInfo     `json:"quality"`
	Convergence      ConvergenceInfo `json:"convergence"`
	Timing           TimingInfo      `json:"timing"`
	Partition        PartitionInfo   `json:"partition"`
	MaxRankBytes     int64           `json:"max_rank_bytes"`
	DeltaEvaluations int64           `json:"delta_evaluations"`
	// Comms is the run-level communication rollup (totals and by-kind
	// splits summed over ranks); its barrier_wait_wall_ns are the
	// measured blocked times.
	Comms *CommsReport `json:"comms,omitempty"`
	// CriticalPath and LostTime are the journal-derived sections
	// consumed by cmd/dinfomap-analyze, present when the run journaled.
	// All their timing fields are measured host wall clock
	// (nondeterministic).
	CriticalPath []CritSegment   `json:"critical_path,omitempty"`
	LostTime     *LostTimeReport `json:"lost_time,omitempty"`
	// Build records the binary's provenance.
	Build *BuildInfo   `json:"build,omitempty"`
	Ranks []RankReport `json:"ranks"`
}

// WriteJSON writes r as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseReport decodes a report and checks its schema tag.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: bad run report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: unknown report schema %q (want %q)", r.Schema, ReportSchema)
	}
	return &r, nil
}
