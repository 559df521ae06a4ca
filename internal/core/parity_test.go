package core

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// runRanksOverProc runs the full algorithm over the proc backend, one
// RunRank per rank goroutine connected through real unix sockets, and
// assembles the result — the same path the multi-process driver takes,
// minus the OS process boundary. Artifacts are round-tripped through
// JSON to pin their serializability (the process boundary is a JSON
// file).
func runRanksOverProc(t *testing.T, g *graph.Graph, cfg Config) *Result {
	t.Helper()
	dir, err := os.MkdirTemp("", "mpi")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	listeners, addrs, err := mpi.ListenRanks("unix", cfg.P, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	arts := make([]*RankArtifact, cfg.P)
	errs := make([]error, cfg.P)
	var wg sync.WaitGroup
	for r := 0; r < cfg.P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpi.DialProc(mpi.ProcConfig{
				Rank: rank, Size: cfg.P,
				Listener: listeners[rank], Addrs: addrs, Network: "unix",
				Epoch: epoch,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			arts[rank], errs[rank] = RunRank(g, cfg, tr)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, a := range arts {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("rank %d artifact does not serialize: %v", r, err)
		}
		rt := &RankArtifact{}
		if err := json.Unmarshal(b, rt); err != nil {
			t.Fatalf("rank %d artifact does not round-trip: %v", r, err)
		}
		arts[r] = rt
	}
	res, err := Assemble(cfg, arts)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return res
}

// runJournaledProc mirrors the multi-process launcher's observability
// path in-process: each rank keeps a rank-scoped journal and recorder
// and streams telemetry to a parent collector over a real TCP uplink;
// the parent estimates clock offsets, merges the sections onto one
// timeline, and the merged journal/recorder/clocks feed report
// building exactly as cmd/dinfomap does for -transport=proc.
func runJournaledProc(t *testing.T, g *graph.Graph, cfg Config) (*Result, *obs.Journal, []obs.ClockEstimate) {
	t.Helper()
	dir, err := os.MkdirTemp("", "mpi")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	listeners, addrs, err := mpi.ListenRanks("unix", cfg.P, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()

	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	parentJ := obs.NewJournalAt(cfg.P, epoch)
	coll := obs.NewCollector(cfg.P, parentJ, nil)
	var upWG sync.WaitGroup
	upWG.Add(1)
	go func() {
		defer upWG.Done()
		var conns sync.WaitGroup
		for {
			conn, err := upLn.Accept()
			if err != nil {
				conns.Wait()
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				defer conns.Done()
				peer, err := mpi.AcceptUplink(conn, cfg.P, epoch, "", 5*time.Second)
				if err != nil {
					//dinfomap:close-ok test cleanup of a rejected handshake
					conn.Close()
					return
				}
				if err := peer.Serve(coll, 0); err != nil {
					t.Errorf("uplink serve: %v", err)
				}
				peer.Close()
			}(conn)
		}
	}()

	arts := make([]*RankArtifact, cfg.P)
	errs := make([]error, cfg.P)
	var wg sync.WaitGroup
	for r := 0; r < cfg.P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpi.DialProc(mpi.ProcConfig{
				Rank: rank, Size: cfg.P,
				Listener: listeners[rank], Addrs: addrs, Network: "unix",
				Epoch: epoch,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			journal := obs.NewRankJournal(rank, cfg.P, epoch)
			rec := mpi.NewRecorder(cfg.P, epoch)
			up, err := mpi.DialUplink("tcp", upLn.Addr().String(), mpi.UplinkConfig{
				Rank: rank, Size: cfg.P, Epoch: epoch,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			relay := obs.StartRelay(journal, rank, up, tr.Telemetry, 0)
			rcfg := cfg
			rcfg.Journal = journal
			rcfg.Recorder = rec
			arts[rank], errs[rank] = RunRank(g, rcfg, tr)
			journal.Finish()
			relay.Wait()
			tel := obs.CaptureTelemetry(journal, rank, rec, tr.Telemetry(), up.Drops())
			if err := obs.SendTelemetry(up, tel); err != nil {
				t.Errorf("rank %d: send telemetry: %v", rank, err)
			}
			up.Close()
		}(r)
	}
	wg.Wait()
	//dinfomap:close-ok stops the accept loop once all ranks detached
	upLn.Close()
	upWG.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	res, err := Assemble(cfg, arts)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	merged, mrec := coll.Merge(epoch)
	res.WaitRecorder = mrec
	res.Clocks = coll.Clocks()
	return res, merged, res.Clocks
}

// TestProcReportParity is the observability half of the transport
// parity contract: a proc-backend run whose telemetry flowed through
// rank journals, the uplink, clock alignment, and the collector merge
// must produce a report that (a) carries the same analysis sections as
// an in-process journaled run — wait states and a critical path — and
// (b) is byte-identical on every deterministic field once volatile
// wall-clock data is scrubbed. This is the same comparison
// dinfomap-diff -parity performs in CI.
func TestProcReportParity(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	cfg := Config{P: 4, Seed: 42}
	epoch := time.Now()

	inCfg := cfg
	inCfg.Journal = obs.NewJournalAt(cfg.P, epoch)
	inRes := Run(g, inCfg)
	inRep := BuildReport(g, inCfg, inRes)

	procRes, merged, clocks := runJournaledProc(t, g, cfg)
	procCfg := cfg
	procCfg.Journal = merged
	procRep := BuildReport(g, procCfg, procRes)

	// The proc report must carry the full analysis surface, not a
	// degraded subset: dinfomap-analyze consumes these unchanged.
	if procRep.WaitStates == nil {
		t.Fatal("proc report has no waitstates section")
	}
	if len(procRep.CriticalPath) == 0 {
		t.Fatal("proc report has no critical path")
	}
	if len(procRep.Clocks) != cfg.P {
		t.Fatalf("proc report carries %d clock estimates, want %d", len(procRep.Clocks), cfg.P)
	}
	for _, c := range clocks {
		if c.Samples == 0 {
			t.Errorf("rank %d clock estimate has no samples", c.Rank)
		}
	}
	for r, rr := range procRep.Ranks {
		if rr.Transport == nil {
			t.Errorf("proc report rank %d has no transport counters", r)
		}
	}

	obs.ScrubVolatile(inRep)
	obs.ScrubVolatile(procRep)
	a, err := json.MarshalIndent(inRep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(procRep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		// Find the first differing line for a readable failure.
		al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("scrubbed reports differ at line %d:\n  in-process: %s\n  proc:       %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("scrubbed reports differ in length: %d vs %d lines", len(al), len(bl))
	}
}

// TestTransportParity is the cross-backend determinism contract: the
// same graph, config, and seed must produce bit-identical partitions,
// codelengths, and deterministic counters whether the ranks are
// goroutines sharing memory slots or peers exchanging frames over
// sockets. This is what lets CI diff a multi-process run report against
// the in-process golden.
func TestTransportParity(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	cfg := Config{P: 4, Seed: 42}
	requireSameRun(t, Run(g, cfg), runRanksOverProc(t, g, cfg))
}

// TestTransportParitySingleRank pins transport parity at p = 1, where
// the layout delegates nothing: the graph has hubs at p = 2, yet the
// one-rank run on either backend reports none.
func TestTransportParitySingleRank(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	if hubs := Run(g, Config{P: 2, Seed: 42}).Partition.NumHubs; hubs == 0 {
		t.Fatal("the graph has no hubs at p = 2; it cannot show the p = 1 rule")
	}
	cfg := Config{P: 1, Seed: 42}
	inproc, multi := Run(g, cfg), runRanksOverProc(t, g, cfg)
	requireSameRun(t, inproc, multi)
	if inproc.Partition.NumHubs != 0 || multi.Partition.NumHubs != 0 {
		t.Fatalf("p = 1 runs delegated %d (goroutine) and %d (proc) hubs, want 0",
			inproc.Partition.NumHubs, multi.Partition.NumHubs)
	}
}

// requireSameRun fails t unless the two results carry bit-identical
// partitions, codelengths, MDL traces and deterministic comm counters.
func requireSameRun(t *testing.T, inproc, multi *Result) {
	t.Helper()
	if inproc.Codelength != multi.Codelength {
		t.Errorf("codelength differs: goroutine %v vs proc %v",
			inproc.Codelength, multi.Codelength)
	}
	if inproc.InitialCodelength != multi.InitialCodelength {
		t.Errorf("initial codelength differs: %v vs %v",
			inproc.InitialCodelength, multi.InitialCodelength)
	}
	if inproc.NumModules != multi.NumModules {
		t.Errorf("module count differs: %d vs %d", inproc.NumModules, multi.NumModules)
	}
	for u := range inproc.Communities {
		if inproc.Communities[u] != multi.Communities[u] {
			t.Fatalf("community of vertex %d differs: %d vs %d",
				u, inproc.Communities[u], multi.Communities[u])
		}
	}
	if len(inproc.MDLTrace) != len(multi.MDLTrace) {
		t.Fatalf("MDL trace length differs: %d vs %d",
			len(inproc.MDLTrace), len(multi.MDLTrace))
	}
	for k := range inproc.MDLTrace {
		if inproc.MDLTrace[k] != multi.MDLTrace[k] {
			t.Errorf("MDL trace[%d] differs: %v vs %v",
				k, inproc.MDLTrace[k], multi.MDLTrace[k])
		}
	}
	// Deterministic communication counters must agree rank for rank:
	// traffic is counted above the transport, and each collective is
	// billed as exactly two synchronization points on every backend.
	for r := range inproc.CommStats {
		a, b := inproc.CommStats[r], multi.CommStats[r]
		if a.BytesSent != b.BytesSent || a.MsgsSent != b.MsgsSent ||
			a.Collectives != b.Collectives || a.BarrierSyncs != b.BarrierSyncs {
			t.Errorf("rank %d deterministic comm counters differ:\n  goroutine: bytes=%d msgs=%d coll=%d syncs=%d\n  proc:      bytes=%d msgs=%d coll=%d syncs=%d",
				r, a.BytesSent, a.MsgsSent, a.Collectives, a.BarrierSyncs,
				b.BytesSent, b.MsgsSent, b.Collectives, b.BarrierSyncs)
		}
	}
}

// TestResultCarriesGraphSize pins that a Result reports the input
// graph's size on both assembly paths, so the multi-process launcher
// can print it without loading the graph: NumEdges rides in rank 0's
// artifact (here round-tripped through JSON) and the vertex count is
// the length of the partition.
func TestResultCarriesGraphSize(t *testing.T) {
	g, _ := planted(7, 600, 12, 0.2)
	edgeless := graph.FromEdges(5, nil)
	cfg := Config{P: 3, Seed: 42}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		res  *Result
	}{
		{"Run", g, Run(g, cfg)},
		{"RunRank", g, runRanksOverProc(t, g, cfg)},
		{"Run on an edgeless graph", edgeless, Run(edgeless, cfg)},
	} {
		if tc.res.NumEdges != tc.g.NumEdges() {
			t.Errorf("%s: NumEdges = %d, graph has %d", tc.name, tc.res.NumEdges, tc.g.NumEdges())
		}
		if len(tc.res.Communities) != tc.g.NumVertices() {
			t.Errorf("%s: %d communities, graph has %d vertices",
				tc.name, len(tc.res.Communities), tc.g.NumVertices())
		}
	}
}

// TestRanksReleaseArcLists pins the memory contract of rank set-up:
// each rank drops its arc list once its stage-1 level holds the arcs in
// CSR form, and the layout summary that every artifact carries is taken
// before any list is dropped.
func TestRanksReleaseArcLists(t *testing.T) {
	g, _ := planted(3, 400, 8, 0.2)
	cfg := Config{P: 3, Seed: 1}.withDefaults()
	rs := newRunState(g, &cfg)
	want := rs.layout.Stats()
	if rs.partStats != want {
		t.Fatalf("partStats = %+v, layout has %+v", rs.partStats, want)
	}
	mpi.Run(cfg.P, rs.rankMain)
	for r, arcs := range rs.layout.RankArcs {
		if arcs != nil {
			t.Errorf("rank %d still holds %d arcs after the run", r, len(arcs))
		}
	}
	if rs.partStats != want {
		t.Errorf("partStats changed during the run: %+v, want %+v", rs.partStats, want)
	}
}
