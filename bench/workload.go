package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dinfomap"
)

// algoSeed is the algorithm seed of every run, distributed and
// sequential: the benchmark's -seed varies the input graphs, never the
// visit order, so two invocations with one -seed repeat every count.
const algoSeed = 1

// workload is a family of input graphs and one distributed
// configuration, timed against the sequential baseline on the same
// files.
type workload struct {
	name    string
	dataset string // registry name passed to dinfomap.LookupDataset
	p       int
	proc    bool // -transport=proc: one OS process per rank
	// graphs is how many graphs one invocation generates from its seed;
	// pair k runs on graph (k-1) mod graphs. The work the algorithm does
	// varies from graph to graph of one generator (ΔL evaluations by up
	// to ±20%), so a run's medians sample several graphs to repeat from
	// seed to seed. setup_s is the median of their set-ups.
	graphs int
	reps   int // interleaved pairs when neither -reps nor -seconds is set
	// oversubscribed admits p above the host's CPU count; such a
	// workload measures counts, not scaling.
	oversubscribed bool
	why            string
}

// workloads are the benchmark's inputs. Each stresses a different
// layer; README.md says which end-to-end number each layer moves here.
var workloads = []workload{
	{name: "uk2007-p2", dataset: "uk-2007", p: 2, proc: true, graphs: 4, reps: 5,
		why: "COST headline: stage-1 sweeps dominate the wall and the 14 MB parse runs twice on the blocking path"},
	{name: "webbase-p2", dataset: "webbase-2001", p: 2, proc: true, graphs: 5, reps: 5,
		why: "sparser, more modules and stage-2 sweeps: Module_Info exchange and merge take a larger share"},
	{name: "uk2005-p1", dataset: "uk-2005", p: 1, proc: false, graphs: 7, reps: 7,
		why: "one process, no launcher or wire: isolates algorithmic work inflation; transport changes show nothing"},
	{name: "amazon-p2", dataset: "amazon", p: 2, proc: true, graphs: 9, reps: 15,
		why: "launch- and latency-bound: spawn, mesh handshake, artifact JSON and assembly dominate"},
}

// graphFile is one generated graph, written once as the edge-list file
// that both binaries and the traced pass read, and read back.
type graphFile struct {
	path  string
	graph *dinfomap.Graph
	info  graphInfo
}

// graphInfo identifies one input file and the codelength, in bits, of
// each binary's partition of it (zero when no run succeeded).
type graphInfo struct {
	GenSeed       uint64  `json:"gen_seed"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	FileBytes     int64   `json:"file_bytes"`
	FileSHA256    string  `json:"file_sha256"`
	Codelength    float64 `json:"codelength"`
	SeqCodelength float64 `json:"seq_codelength"`
}

// inputInfo identifies what was measured, so two result files can be
// compared only when they describe the same inputs on the same host.
type inputInfo struct {
	Dataset        string      `json:"dataset"`
	AlgoSeed       uint64      `json:"algo_seed"`
	P              int         `json:"p"`
	Transport      string      `json:"transport"`
	Graphs         []graphInfo `json:"graphs"`
	NumCPU         int         `json:"nproc"`
	GOMAXPROCS     int         `json:"gomaxprocs"`
	GoVersion      string      `json:"go_version"`
	Revision       string      `json:"revision"`
	Oversubscribed bool        `json:"oversubscribed"`
}

// input is a workload's generated graphs with their set-up times:
// generate + write, and generate alone, one sample per graph.
type input struct {
	files      []graphFile
	setup, gen []float64
	info       inputInfo
}

func (w workload) transport() string {
	if w.proc {
		return "proc"
	}
	return "goroutine"
}

// checkHost rejects a workload that would put more ranks than cores on
// the host, unless the workload says it measures counts only.
func (w workload) checkHost() error {
	if w.p > runtime.NumCPU() && !w.oversubscribed {
		return fmt.Errorf("%s: p=%d exceeds nproc=%d and the workload is not labelled oversubscribed",
			w.name, w.p, runtime.NumCPU())
	}
	return nil
}

// genSeed is the generator seed of graph i: the base seed itself for
// graph 0, scrambled for the others so that consecutive base seeds
// share no graph.
func genSeed(base uint64, i int) uint64 {
	return base ^ uint64(i)*0x9e3779b97f4a7c15
}

// setupInput generates the workload's graphs from seed (0 means the
// dataset's registry seed) into dir/graph<i>.txt and reads each back.
func setupInput(w workload, seed uint64, dir, revision string) (*input, error) {
	d, err := dinfomap.LookupDataset(w.dataset)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = d.Seed
	}
	in := &input{info: inputInfo{
		Dataset: w.dataset, AlgoSeed: algoSeed, P: w.p, Transport: w.transport(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: revision,
		Oversubscribed: w.p > runtime.NumCPU(),
	}}
	for i := 0; i < w.graphs; i++ {
		d.Seed = genSeed(seed, i)
		path := filepath.Join(dir, fmt.Sprintf("graph%d.txt", i))
		start := time.Now()
		g, _ := d.Generate()
		gen := time.Since(start)
		if err := writeFile(path, func(wr io.Writer) error { return dinfomap.WriteEdgeList(wr, g) }); err != nil {
			return nil, err
		}
		in.setup = append(in.setup, time.Since(start).Seconds())
		in.gen = append(in.gen, gen.Seconds())

		f, err := readBack(path, g, d.Seed)
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, f)
		in.info.Graphs = append(in.info.Graphs, f.info)
	}
	return in, nil
}

// readBack parses the written file, checks it holds the generated graph,
// and fingerprints it.
func readBack(path string, g *dinfomap.Graph, seed uint64) (graphFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return graphFile{}, err
	}
	//dinfomap:close-ok read-only file; close errors cannot lose data
	defer f.Close()
	h := sha256.New()
	read, err := dinfomap.ReadEdgeList(io.TeeReader(f, h))
	if err != nil {
		return graphFile{}, fmt.Errorf("reading back %s: %w", path, err)
	}
	if read.NumVertices() != g.NumVertices() || read.NumEdges() != g.NumEdges() {
		return graphFile{}, fmt.Errorf("%s reads back as %d vertices, %d edges; generated %d, %d",
			path, read.NumVertices(), read.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	st, err := f.Stat()
	if err != nil {
		return graphFile{}, err
	}
	return graphFile{path: path, graph: read, info: graphInfo{
		GenSeed: seed, Vertices: g.NumVertices(), Edges: g.NumEdges(),
		FileBytes: st.Size(), FileSHA256: hex.EncodeToString(h.Sum(nil)),
	}}, nil
}

// writeFile creates path and streams fn's output into it through a
// buffered writer, reporting flush and close errors.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fn(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
