// Package dinfomap is a Go implementation of the distributed Infomap
// community detection algorithm of Zeng & Yu (ICPP 2018), together with
// the sequential Infomap reference, delegate partitioning, baseline
// algorithms (RelaxMap-style shared-memory, GossipMap-style
// distributed), graph generators, and quality metrics.
//
// # Quickstart
//
//	g := dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
//	    N: 10000, NumComms: 50, AvgDegree: 10, Mixing: 0.2,
//	}, 42).Graph
//	res := dinfomap.RunDistributed(g, dinfomap.DistributedConfig{P: 8})
//	fmt.Println(res.NumModules, res.Codelength)
//
// The distributed algorithm simulates its processors as goroutines over
// an in-process message-passing runtime with exact byte accounting; see
// DESIGN.md for how that maps onto the paper's MPI implementation.
package dinfomap

import (
	"io"
	"net"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/gossip"
	"dinfomap/internal/graph"
	"dinfomap/internal/infomap"
	"dinfomap/internal/metrics"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/partition"
	"dinfomap/internal/relax"
)

// Graph is the shared CSR graph type. Build one with NewBuilder,
// FromEdges, ReadEdgeList, or a generator.
type Graph = graph.Graph

// Builder accumulates undirected edges; call Build to obtain a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n vertices (growing
// automatically as larger vertex ids appear).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds an unweighted undirected graph from an edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated "u v [w]" edge list.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// DegreeStats summarizes a degree distribution; see ComputeDegreeStats.
type DegreeStats = graph.DegreeStats

// ComputeDegreeStats returns degree-distribution statistics of g.
func ComputeDegreeStats(g *Graph) DegreeStats { return graph.ComputeDegreeStats(g) }

// ---- Generators ----

// PlantedConfig parameterizes the planted-partition generator.
type PlantedConfig = gen.PlantedConfig

// PlantedGraph bundles a generated graph with its ground truth.
type PlantedGraph struct {
	Graph *Graph
	Truth []int // planted community of each vertex
}

// GeneratePlanted creates a graph with known community structure.
func GeneratePlanted(cfg PlantedConfig, seed uint64) PlantedGraph {
	g, truth := gen.PlantedPartition(seed, cfg)
	return PlantedGraph{Graph: g, Truth: truth}
}

// GeneratePowerLaw creates a scale-free Chung-Lu graph with n vertices,
// power-law exponent gamma, and degrees in [dmin, dmax].
func GeneratePowerLaw(seed uint64, n int, gamma float64, dmin, dmax int) *Graph {
	return gen.PowerLawGraph(seed, n, gamma, dmin, dmax)
}

// GenerateBarabasiAlbert creates a preferential-attachment graph with n
// vertices, m edges per new vertex.
func GenerateBarabasiAlbert(seed uint64, n, m int) *Graph {
	return gen.BarabasiAlbert(seed, n, m)
}

// Dataset describes one synthetic stand-in for a paper dataset.
type Dataset = gen.Dataset

// Datasets returns the names of the Table 1 stand-in datasets.
func Datasets() []string { return gen.Names() }

// LookupDataset returns a stand-in dataset by name (e.g. "amazon",
// "uk-2007").
func LookupDataset(name string) (Dataset, error) { return gen.Lookup(name) }

// ---- Algorithms ----

// SequentialConfig controls the sequential Infomap reference
// (Algorithm 1 of the paper).
type SequentialConfig = infomap.Config

// SequentialResult is a sequential Infomap result.
type SequentialResult = infomap.Result

// RunSequential executes sequential Infomap on g.
func RunSequential(g *Graph, cfg SequentialConfig) *SequentialResult {
	return infomap.Run(g, cfg)
}

// DistributedConfig controls the distributed Infomap algorithm
// (Algorithm 2 of the paper). P is the number of simulated ranks.
// DHigh, the delegate threshold, is ignored at P = 1: one rank
// delegates nothing.
type DistributedConfig = core.Config

// DistributedResult is a distributed Infomap result, including the MDL
// and merge-rate traces, per-phase modeled times, and per-rank
// communication statistics used by the experiment harness.
type DistributedResult = core.Result

// RunDistributed executes the distributed Infomap algorithm on g.
func RunDistributed(g *Graph, cfg DistributedConfig) *DistributedResult {
	return core.Run(g, cfg)
}

// RunDistributedFile executes the distributed Infomap algorithm on the
// edge-list file at path without building the whole graph: each rank
// reads and keeps only its share of the file. The partition equals
// RunDistributed's on the graph ReadEdgeList builds from the file.
func RunDistributedFile(path string, cfg DistributedConfig) (*DistributedResult, error) {
	return core.RunFile(path, cfg)
}

// ---- Multi-process transport ----

// Transport is the message-passing backend a distributed rank runs
// over: the in-process goroutine transport (what RunDistributed uses)
// or the socket-based proc transport connecting one OS process per
// rank. See internal/mpi for the contract.
type Transport = mpi.Transport

// ProcTransportConfig describes one rank's endpoint of a multi-process
// world: its listener, the full address table, and the shared epoch.
type ProcTransportConfig = mpi.ProcConfig

// DialProcTransport establishes the full peer mesh for one rank of a
// multi-process world and returns its transport. It blocks until every
// peer connection is established and handshaken (rank identity, world
// size, build version) or the connect timeout expires.
func DialProcTransport(cfg ProcTransportConfig, opts ...RunOption) (*mpi.ProcTransport, error) {
	return mpi.DialProc(cfg, opts...)
}

// ListenRanks binds one listener per rank ("tcp" on loopback, or "unix"
// with sockets under dir) and returns the listeners with their address
// table, for distribution to the rank processes.
func ListenRanks(network string, size int, dir string) ([]net.Listener, []string, error) {
	return mpi.ListenRanks(network, size, dir)
}

// RunOption adjusts a distributed world's runtime behavior.
type RunOption = mpi.RunOpt

// WithRankTimeout bounds how long a rank may sit blocked in one receive
// or synchronization point before the run is declared deadlocked.
func WithRankTimeout(d time.Duration) RunOption { return mpi.WithTimeout(d) }

// WithConnectTimeout bounds the connect/handshake phase of
// DialProcTransport; it never overlaps the rank timeout, which starts
// only once the mesh is up.
func WithConnectTimeout(d time.Duration) RunOption { return mpi.WithConnectTimeout(d) }

// RankArtifact is one rank's serializable contribution to a
// distributed result; see RunDistributedRank and AssembleDistributed.
type RankArtifact = core.RankArtifact

// RunDistributedRank executes one rank of the distributed algorithm
// over an explicit transport and returns its artifact. All ranks of the
// world run the same call with the same graph and config; rank 0's
// artifact carries the rank-identical outputs.
func RunDistributedRank(g *Graph, cfg DistributedConfig, t Transport) (*RankArtifact, error) {
	return core.RunRank(g, cfg, t)
}

// AssembleDistributed combines one artifact per rank into the full
// result — the multi-process counterpart of RunDistributed's return
// value, bit-identical to it for the same graph, config, and seed.
func AssembleDistributed(cfg DistributedConfig, artifacts []*RankArtifact) (*DistributedResult, error) {
	return core.Assemble(cfg, artifacts)
}

// RelaxConfig controls the RelaxMap-style shared-memory baseline.
type RelaxConfig = relax.Config

// RelaxResult is a RelaxMap-style result.
type RelaxResult = relax.Result

// RunRelax executes the shared-memory parallel Infomap baseline on g.
func RunRelax(g *Graph, cfg RelaxConfig) *RelaxResult {
	return relax.Run(g, cfg)
}

// GossipConfig controls the GossipMap-style distributed baseline.
type GossipConfig = gossip.Config

// GossipResult is a GossipMap-style result.
type GossipResult = gossip.Result

// RunGossip executes the distributed label-propagation baseline on g.
func RunGossip(g *Graph, cfg GossipConfig) *GossipResult {
	return gossip.Run(g, cfg)
}

// ---- Observability ----

// RunJournal is the per-rank event journal of a distributed run: one
// record per phase per synchronized sweep, per rank. Create one with
// NewRunJournal, assign it to DistributedConfig.Journal, then export it
// with WriteChromeTrace after RunDistributed returns.
type RunJournal = obs.Journal

// NewRunJournal returns an event journal for p ranks.
func NewRunJournal(p int) *RunJournal { return obs.NewJournal(p) }

// WriteChromeTrace exports a run journal as Chrome trace-event JSON
// (one timeline row per rank), viewable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, j *RunJournal) error {
	return obs.WriteChromeTrace(w, j)
}

// WaitRecorder holds the raw wait-state events of a journaled
// distributed run (barrier arrival/release times, and on the proc
// transport the collectives' frame matches); RunDistributed fills DistributedResult.WaitRecorder whenever
// DistributedConfig.Journal is set.
type WaitRecorder = mpi.Recorder

// WriteChromeTraceWith exports a run journal together with the run's
// wait-state events: Perfetto flow arrows for every matched send->recv
// frame pair and a "blocked ranks" counter track showing how many
// ranks sit in a blocked receive or barrier wait at each instant. rec may be nil,
// which reduces to WriteChromeTrace.
func WriteChromeTraceWith(w io.Writer, j *RunJournal, rec *WaitRecorder) error {
	return obs.WriteChromeTraceWith(w, j, rec)
}

// BuildProvenance is the running binary's build identity (module
// version, VCS revision); run reports embed it and -version prints it.
type BuildProvenance = obs.BuildInfo

// ReadBuildProvenance reads the binary's build info via runtime/debug.
func ReadBuildProvenance() BuildProvenance { return obs.ReadBuild() }

// RunReport is the structured, stable-schema JSON report of one
// distributed run; see BuildRunReport.
type RunReport = obs.Report

// BuildRunReport assembles the machine-readable run report (convergence
// traces, modeled and host timings, per-rank per-phase costs) from a
// finished distributed run. cfg should be the config passed to
// RunDistributed. Serialize with RunReport.WriteJSON.
func BuildRunReport(g *Graph, cfg DistributedConfig, res *DistributedResult) *RunReport {
	return core.BuildReport(g, cfg, res)
}

// ---- Quality measures ----

// Quality bundles NMI, F-measure, and Jaccard index (Table 2).
type Quality = metrics.Quality

// ComparePartitions computes NMI, F-measure, and Jaccard between two
// partitions of the same vertex set.
func ComparePartitions(a, b []int) Quality { return metrics.Compare(a, b) }

// NMI returns the normalized mutual information of two partitions.
func NMI(a, b []int) float64 { return metrics.NMI(a, b) }

// Modularity returns the Newman modularity of comm on g.
func Modularity(g *Graph, comm []int) float64 { return metrics.Modularity(g, comm) }

// CodelengthOf evaluates the two-level map equation of an arbitrary
// partition on g (lower is better).
func CodelengthOf(g *Graph, comm []int) float64 { return infomap.CodelengthOf(g, comm) }

// ---- Partitioning analysis ----

// BalanceStats summarizes per-rank edge and ghost balance of a layout.
type BalanceStats = partition.BalanceStats

// Analyze1D computes the balance of plain 1D round-robin partitioning
// of g over p ranks (the baseline of Figures 6-7).
func Analyze1D(g *Graph, p int) BalanceStats {
	return partition.OneD(g, p).Stats()
}

// AnalyzeDelegate computes the balance of delegate partitioning of g
// over p ranks with the paper's default threshold (d_high = p). With
// p = 1 nothing is delegated.
func AnalyzeDelegate(g *Graph, p int) BalanceStats {
	return partition.Delegate(g, p, partition.DelegateOptions{}).Stats()
}
