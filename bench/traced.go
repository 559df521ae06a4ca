package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"dinfomap"
	"dinfomap/internal/core"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/partition"
)

const (
	// launchReps execs of `dinfomap -version` give launch.exec_s.
	launchReps = 5
	// The sweep probe converges a single-rank level for at most
	// convergePasses passes, then times sweepPasses passes.
	convergePasses = 30
	sweepPasses    = 3
	// connectTimeout bounds the traced pass's mesh dial.
	connectTimeout = 30 * time.Second
)

// span is one interval of the traced pass: a call into one layer, made
// from the benchmark. Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name     string             `json:"name"`
	Parent   int                `json:"parent"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) seconds() float64 { return time.Duration(s.EndNs - s.StartNs).Seconds() }

// tracer keeps the spans of one traced pass in memory. It is used from
// one goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int, counters map[string]float64) float64 {
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.epoch))
	s.Counters = counters
	return s.seconds()
}

// tracedPass calls each layer's public function on the workload's first
// graph file and records a span around each call. It has two roots. "probe" holds
// layers called alone to isolate their cost: a bare exec, the delegate
// partitioner, flow init, the sweep kernel and the sequential baseline.
// "path" replays the blocking path of one dinfomap run step by step;
// its children sum to traced.total_s. tracedPass returns the per-layer
// metrics (all but residual_s, which needs the timed runs), the spans,
// and the recomputed codelength of the path's partition.
func tracedPass(ctx context.Context, w workload, in *input, bins binaries, dir string) (map[string]float64, []span, float64, error) {
	tr := &tracer{epoch: time.Now()}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // layers a workload never enters report zero
	}
	gf := in.files[0]
	m["gen.generate_s"] = median(in.gen)
	m["graph.file_mb"] = float64(gf.info.FileBytes) / 1e6
	g := gf.graph
	cfg := dinfomap.DistributedConfig{P: w.p, Seed: algoSeed}
	launch := func() error { _, err := execVersion(ctx, bins.dist); return err }

	probe := tr.begin("probe", -1)
	var execs []float64
	for i := 0; i < launchReps; i++ {
		id := tr.begin("launch.exec", probe)
		if err := launch(); err != nil {
			return nil, nil, 0, err
		}
		execs = append(execs, tr.end(id, nil))
	}
	m["launch.exec_s"] = median(execs)

	id := tr.begin("partition.delegate", probe)
	st := partition.Delegate(g, w.p, partition.DelegateOptions{DHigh: runDHigh(g, w.p)}).Stats()
	m["partition.hubs"] = float64(st.NumHubs)
	m["partition.edge_imbalance"] = st.EdgeImbalance
	m["partition.delegate_s"] = tr.end(id, map[string]float64{"hubs": m["partition.hubs"]})

	id = tr.begin("mapeq.flow_init", probe)
	mapeq.NewVertexFlow(g)
	m["mapeq.flow_init_s"] = tr.end(id, nil)

	id = tr.begin("core.sweep.converge", probe)
	lvl := core.NewBenchLevel(g, algoSeed)
	passes := 1
	for passes < convergePasses && lvl.SweepPass() > 0 {
		passes++
	}
	tr.end(id, map[string]float64{"passes": float64(passes)})
	id = tr.begin("core.sweep.pass", probe)
	for i := 0; i < sweepPasses; i++ {
		lvl.SweepPass()
	}
	m["core.sweep.pass_ns_per_vertex"] = tr.end(id, map[string]float64{"passes": sweepPasses}) * 1e9 /
		float64(sweepPasses*g.NumVertices())

	id = tr.begin("infomap.run", probe)
	seq := dinfomap.RunSequential(g, dinfomap.SequentialConfig{Seed: algoSeed})
	evals := float64(seq.DeltaEvaluations)
	m["infomap.run_s"] = tr.end(id, map[string]float64{"evals": evals})
	m["infomap.evals"] = evals
	m["infomap.ns_per_eval"] = m["infomap.run_s"] * 1e9 / evals
	tr.end(probe, nil)

	path := tr.begin("path", -1)
	step := func(name string, fn func() error) (float64, error) {
		id := tr.begin(name, path)
		err := fn()
		return tr.end(id, nil), err
	}
	var pg *dinfomap.Graph
	readGraph := func() error {
		f, err := os.Open(gf.path)
		if err != nil {
			return err
		}
		//dinfomap:close-ok read-only file; close errors cannot lose data
		defer f.Close()
		pg, err = dinfomap.ReadEdgeList(f)
		return err
	}

	if _, err := step("launch.exec", launch); err != nil {
		return nil, nil, 0, err
	}
	var err error
	if m["graph.read_s"], err = step("graph.read", readGraph); err != nil {
		return nil, nil, 0, err
	}
	var res *dinfomap.DistributedResult
	if w.proc {
		// The launcher's rank processes start and parse the file again.
		if _, err := step("launch.exec", launch); err != nil {
			return nil, nil, 0, err
		}
		if _, err := step("graph.read", readGraph); err != nil {
			return nil, nil, 0, err
		}
		res, err = rankPath(tr, path, pg, cfg, dir, m)
	} else {
		id := tr.begin("core.run", path)
		res = dinfomap.RunDistributed(pg, cfg)
		m["core.run_s"] = tr.end(id, nil)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if m["output.write_s"], err = step("output.write", func() error {
		return writeFile(filepath.Join(dir, "traced-part.txt"), func(wr io.Writer) error {
			for u, c := range res.Communities {
				if _, err := fmt.Fprintf(wr, "%d %d\n", u, c); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return nil, nil, 0, err
	}
	tr.end(path, nil)

	if res.Partition.NumHubs != st.NumHubs {
		return nil, nil, 0, fmt.Errorf("partition probe found %d hubs, the run used %d", st.NumHubs, res.Partition.NumHubs)
	}
	L := dinfomap.CodelengthOf(pg, res.Communities)
	if math.Abs(L-res.Codelength) > 1e-9*math.Abs(L) {
		return nil, nil, 0, fmt.Errorf("traced run reports codelength %.12f, its partition has %.12f", res.Codelength, L)
	}
	runMetrics(m, res, evals)
	for _, s := range tr.spans {
		if s.Parent == path {
			m["traced.total_s"] += s.seconds()
		}
	}
	return m, tr.spans, L, nil
}

// execVersion runs `dinfomap -version`, the cost of starting the binary
// without doing any work, and returns what it prints.
func execVersion(ctx context.Context, bin string) (string, error) {
	out, err := exec.CommandContext(ctx, bin, "-version").Output()
	if err != nil {
		return "", fmt.Errorf("%s -version: %w", bin, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runDHigh is the delegate threshold a run with DHigh unset uses
// (core.newRunState): max(p, 4 × integer average degree). The probe
// checks its hub count against the run's, so a drift here fails loudly.
func runDHigh(g *dinfomap.Graph, p int) int {
	avgDeg := 2 * g.NumEdges() / max(1, g.NumVertices())
	return max(p, 4*avgDeg)
}

// rankPath runs the ranks of a -transport=proc launch as goroutines over
// unix sockets, then the launcher's side: each rank's artifact through
// JSON and back, and assembly.
func rankPath(tr *tracer, path int, g *dinfomap.Graph, cfg dinfomap.DistributedConfig, dir string, m map[string]float64) (*dinfomap.DistributedResult, error) {
	p := cfg.P
	// A fresh socket directory: a crashed run leaves its sockets behind.
	sockDir, err := os.MkdirTemp(dir, "s")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sockDir)
	id := tr.begin("mpi.dial", path)
	lns, addrs, err := dinfomap.ListenRanks("unix", p, sockDir)
	if err != nil {
		return nil, err
	}
	trs := make([]*mpi.ProcTransport, p)
	errs := make([]error, p)
	epoch := time.Now()
	parallel(p, func(r int) {
		trs[r], errs[r] = dinfomap.DialProcTransport(dinfomap.ProcTransportConfig{
			Rank: r, Size: p, Listener: lns[r], Addrs: addrs, Network: "unix", Epoch: epoch,
		}, dinfomap.WithConnectTimeout(connectTimeout))
	})
	m["mpi.dial_s"] = tr.end(id, nil)
	if err := firstError(errs); err != nil {
		for r, t := range trs {
			if t != nil {
				t.Abort(err)
			}
			//dinfomap:close-ok unwinding a failed dial; the dial error is returned
			lns[r].Close()
		}
		return nil, err
	}

	id = tr.begin("core.run", path)
	arts := make([]*dinfomap.RankArtifact, p)
	parallel(p, func(r int) { arts[r], errs[r] = dinfomap.RunDistributedRank(g, cfg, trs[r]) })
	m["core.run_s"] = tr.end(id, nil)
	if err := firstError(errs); err != nil {
		return nil, err
	}

	id = tr.begin("core.artifact.encode", path)
	blobs := make([][]byte, p)
	for r, a := range arts {
		if blobs[r], err = json.Marshal(a); err != nil {
			return nil, err
		}
	}
	m["core.artifact.encode_s"] = tr.end(id, nil)

	id = tr.begin("core.artifact.decode", path)
	decoded := make([]*dinfomap.RankArtifact, p)
	for r, b := range blobs {
		decoded[r] = &dinfomap.RankArtifact{}
		if err := json.Unmarshal(b, decoded[r]); err != nil {
			return nil, err
		}
	}
	m["core.artifact.decode_s"] = tr.end(id, nil)

	id = tr.begin("core.assemble", path)
	res, err := dinfomap.AssembleDistributed(cfg, decoded)
	m["core.assemble_s"] = tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	for _, b := range blobs {
		n, err := stableSize(b)
		if err != nil {
			return nil, err
		}
		m["core.artifact.bytes"] += float64(n)
	}
	return res, nil
}

// parallel runs fn(0) … fn(n-1) concurrently and waits for all.
func parallel(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func firstError(errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// volatileKey matches the artifact fields that hold measured time (wall
// clocks, wait times) or timing-dependent counts (blocked receives,
// dial retries). Their digits change run to run.
var volatileKey = regexp.MustCompile(`(?i)(wall|ns$|blocked|retries)`)

// stableSize is the JSON size of an encoded artifact without its
// volatile fields, so core.artifact.bytes repeats exactly in sync mode.
func stableSize(blob []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber() // keep every number's text, and so its length
	var v any
	if err := dec.Decode(&v); err != nil {
		return 0, err
	}
	out, err := json.Marshal(dropVolatile(v))
	return len(out), err
}

func dropVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if volatileKey.MatchString(k) {
				delete(x, k)
			} else {
				x[k] = dropVolatile(e)
			}
		}
	case []any:
		for i, e := range x {
			x[i] = dropVolatile(e)
		}
	}
	return v
}

// exchangeKinds are the stage-1 exchange's message kinds: Module_Info
// delivery and partials, ghost updates and hub candidates.
var exchangeKinds = []mpi.Kind{mpi.KindModuleInfo, mpi.KindModulePartial, mpi.KindGhostUpdate, mpi.KindHubCandidate}

// runMetrics adds the counts and stage walls of a finished run to m.
// seqEvals is the sequential baseline's ΔL evaluation count.
func runMetrics(m map[string]float64, res *dinfomap.DistributedResult, seqEvals float64) {
	m["core.stage1_s"] = res.Stage1Wall.Seconds()
	m["core.stage2_s"] = res.Stage2Wall.Seconds()
	m["core.other_s"] = m["core.run_s"] - m["core.stage1_s"] - m["core.stage2_s"]
	m["core.stage1_sweeps"] = float64(res.Stage1Iterations)
	m["core.stage2_sweeps"] = float64(res.Stage2Iterations)
	m["core.outer_iters"] = float64(res.OuterIterations)
	m["core.sweep.evals"] = float64(res.DeltaEvaluations)
	m["core.sweep.work_inflation"] = float64(res.DeltaEvaluations) / seqEvals
	m["mpi.max_rank_bytes"] = float64(res.MaxRankBytes)
	for _, s := range res.CommStats {
		m["mpi.bytes"] += float64(s.TotalBytes())
		m["mpi.msgs"] += float64(s.MsgsSent + s.CollectiveMsgs)
		m["mpi.collectives"] += float64(s.Collectives)
		m["mpi.blocked_s"] += time.Duration(s.BlockedNs()).Seconds()
		for _, k := range exchangeKinds {
			ks := s.ByKind[k]
			m["core.exchange.bytes"] += float64(ks.TotalBytes())
			m["core.exchange.msgs"] += float64(ks.MsgsSent + ks.CollectiveMsgs)
		}
		m["core.merge.bytes"] += float64(s.ByKind[mpi.KindMergeShuffle].TotalBytes())
	}
}
