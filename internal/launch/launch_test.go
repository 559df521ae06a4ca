package launch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/obs"
)

// TestMain lets Run re-execute this test binary as its rank processes.
func TestMain(m *testing.M) {
	ServeChild()
	os.Exit(m.Run())
}

// testInput is a small planted stand-in with hubs at every p >= 2.
var testInput = Input{Dataset: "amazon", Scale: 0.2}

// runBoth clusters in on the goroutine transport and with one OS
// process per rank.
func runBoth(t *testing.T, in Input, cfg core.Config) (g *graph.Graph, inproc, multi *core.Result) {
	t.Helper()
	g, err := in.Load()
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err = Run(Spec{Input: in, P: cfg.P, DHigh: cfg.DHigh, Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return g, core.Run(g, cfg), multi
}

// TestTransportParity is the cross-backend determinism contract: the
// same graph, config, and seed must produce bit-identical partitions,
// codelengths, and deterministic counters whether the ranks are
// goroutines sharing memory slots or OS processes exchanging frames
// over sockets. This is what lets CI diff a multi-process run report
// against the in-process golden.
func TestTransportParity(t *testing.T) {
	_, inproc, multi := runBoth(t, testInput, core.Config{P: 4, Seed: 42})
	requireSameRun(t, inproc, multi)
}

// TestTransportParitySingleRank pins transport parity at p = 1, where
// the layout delegates nothing: the graph has hubs at p = 2, yet the
// one-rank run on either backend reports none.
func TestTransportParitySingleRank(t *testing.T) {
	g, inproc, multi := runBoth(t, testInput, core.Config{P: 1, Seed: 42})
	if hubs := core.Run(g, core.Config{P: 2, Seed: 42}).Partition.NumHubs; hubs == 0 {
		t.Fatal("the graph has no hubs at p = 2; it cannot show the p = 1 rule")
	}
	requireSameRun(t, inproc, multi)
	if inproc.Partition.NumHubs != 0 || multi.Partition.NumHubs != 0 {
		t.Fatalf("p = 1 runs delegated %d (goroutine) and %d (proc) hubs, want 0",
			inproc.Partition.NumHubs, multi.Partition.NumHubs)
	}
}

// TestRankProcessGOMAXPROCS pins the one-core-per-rank rule: every
// rank process runs with GOMAXPROCS = max(1, NumCPU/P), also when the
// ranks oversubscribe the host, and a GOMAXPROCS the launcher's
// environment sets reaches every rank unchanged.
func TestRankProcessGOMAXPROCS(t *testing.T) {
	ncpu := runtime.NumCPU()
	check := func(t *testing.T, p, want int) {
		t.Helper()
		res, _, err := Run(Spec{Input: testInput, P: p, Seed: 42})
		if err != nil {
			t.Fatalf("Run at p = %d: %v", p, err)
		}
		if len(res.Ranks) != p {
			t.Fatalf("p = %d: %d rank artifacts", p, len(res.Ranks))
		}
		for r, a := range res.Ranks {
			if ts := a.Transport; ts == nil || ts.GOMAXPROCS != want {
				t.Errorf("p = %d rank %d: transport report %+v, want gomaxprocs %d", p, r, ts, want)
			}
		}
	}
	t.Run("default", func(t *testing.T) {
		// An empty value is unset to the Go runtime, and to the launcher.
		t.Setenv("GOMAXPROCS", "")
		for _, p := range []int{2, ncpu + 1} {
			check(t, p, max(1, ncpu/p))
		}
	})
	t.Run("user set", func(t *testing.T) {
		t.Setenv("GOMAXPROCS", "3")
		check(t, 2, 3)
	})
}

// TestResultCarriesGraphSize pins that the launcher learns the graph's
// size from the rank processes alone: NumEdges and TotalWeight ride in
// rank 0's artifact and the vertex count is the length of the
// partition. The input is an edge-list file the launcher never parses.
func TestResultCarriesGraphSize(t *testing.T) {
	g, _ := gen.PlantedPartition(7, gen.PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 8, Mixing: 0.2, DegreeGamma: 2.5,
	})
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(Spec{Input: Input{Path: path}, P: 3, Seed: 42})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NumEdges != g.NumEdges() {
		t.Errorf("NumEdges = %d, graph has %d", res.NumEdges, g.NumEdges())
	}
	if math.Float64bits(res.TotalWeight) != math.Float64bits(g.TotalWeight()) {
		t.Errorf("TotalWeight = %v, graph has %v", res.TotalWeight, g.TotalWeight())
	}
	if len(res.Communities) != g.NumVertices() {
		t.Errorf("%d communities, graph has %d vertices", len(res.Communities), g.NumVertices())
	}
}

// TestProcReportParity is the observability half of the transport
// parity contract: a multi-process run whose telemetry flowed through
// rank journals, the artifacts' telemetry sections and the merge must
// produce a report that (a) carries the same analysis sections as an
// in-process journaled run — lost time and a critical path — and (b)
// is byte-identical on every deterministic field once volatile
// wall-clock data is scrubbed. This is the same comparison
// dinfomap-diff -parity performs in CI.
func TestProcReportParity(t *testing.T) {
	g, err := testInput.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{P: 4, Seed: 42}
	epoch := time.Now()

	inCfg := cfg
	inCfg.Journal = obs.NewJournalAt(cfg.P, epoch)
	inRep := core.BuildReport(inCfg, core.Run(g, inCfg))

	procRes, journal, err := Run(Spec{Input: testInput, P: cfg.P, Seed: cfg.Seed, Observe: true, Epoch: epoch})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if journal == nil {
		t.Fatal("an observed run returned no journal")
	}
	for r := 0; r < cfg.P; r++ {
		if len(journal.Rank(r).Events()) == 0 {
			t.Errorf("merged journal's rank %d row has no events", r)
		}
	}
	procCfg := cfg
	procCfg.Journal = journal
	procRep := core.BuildReport(procCfg, procRes)
	// Neither run's report needs the graph to describe it.
	for i, rep := range []*obs.Report{inRep, procRep} {
		got := rep.Graph
		if got.Vertices != g.NumVertices() || got.Edges != g.NumEdges() ||
			math.Float64bits(got.TotalWeight) != math.Float64bits(g.TotalWeight()) {
			t.Errorf("%s report graph section %+v, want %d vertices, %d edges, total weight %v",
				[]string{"goroutine", "proc"}[i], got, g.NumVertices(), g.NumEdges(), g.TotalWeight())
		}
	}

	// The proc report must carry the full analysis surface, not a
	// degraded subset: dinfomap-analyze consumes these unchanged.
	if procRep.LostTime == nil || procRep.Timing.RunWallNs == 0 {
		t.Fatal("proc report has no lost_time section or no run wall")
	}
	if len(procRep.CriticalPath) == 0 {
		t.Fatal("proc report has no critical path")
	}
	for r, rr := range procRep.Ranks {
		if rr.Transport == nil {
			t.Errorf("proc report rank %d has no transport counters", r)
		}
		if rr.PeakRSSBytes < 1<<20 {
			t.Errorf("proc report rank %d peak RSS = %d bytes, want the process's own (at least 1 MiB)", r, rr.PeakRSSBytes)
		}
		// All three phase-boundary collections ran in the rank's own
		// process.
		for _, b := range rr.LiveBytes {
			if b <= 0 || b > rr.PeakRSSBytes {
				t.Errorf("proc report rank %d live bytes %v, want each in (0, peak RSS %d]", r, rr.LiveBytes, rr.PeakRSSBytes)
			}
		}
	}
	for r, rr := range inRep.Ranks {
		if rr.PeakRSSBytes != 0 {
			t.Errorf("in-process report rank %d peak RSS = %d, want 0 (ranks share a process)", r, rr.PeakRSSBytes)
		}
		for _, b := range rr.LiveBytes {
			if b <= 0 {
				t.Errorf("in-process report rank %d live bytes %v, want every boundary measured", r, rr.LiveBytes)
			}
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

// TestScrubVolatileZeroesEveryWall pins obs.ScrubVolatile, the one
// definition of a deterministic report field that dinfomap-diff
// -parity applies, against the regression differ's rule that a key
// naming "wall" holds measured host time: on the fullest report a run
// gives — observed, over rank processes that each read part of a file,
// so it has ingest, transport, lost-time and critical-path sections —
// every value under a key containing "wall" is zero or absent once
// scrubbed.
func TestScrubVolatileZeroesEveryWall(t *testing.T) {
	path, _ := writeHostileFile(t)
	cfg := core.Config{P: 2, Seed: 42}
	res, journal, err := Run(Spec{Input: Input{Path: path}, P: cfg.P, Seed: cfg.Seed, Observe: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Journal = journal
	rep := core.BuildReport(cfg, res)
	if rep.Timing.RunWallNs == 0 || rep.LostTime == nil || len(rep.CriticalPath) == 0 ||
		rep.Ranks[0].Ingest == nil || rep.Ranks[0].Transport == nil {
		t.Fatal("the report lacks a section this test must see scrubbed")
	}
	obs.ScrubVolatile(rep)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, v any, wall bool)
	walk = func(path string, v any, wall bool) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(path+"."+k, c, wall || strings.Contains(k, "wall"))
			}
		case []any:
			for i, c := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), c, wall)
			}
		default:
			if wall && v != nil && v != float64(0) {
				t.Errorf("%s = %v after ScrubVolatile, want 0 or absent", path, v)
			}
		}
	}
	walk("", doc, false)
}

// TestRunRejectsBadInputBeforeSpawn pins that a launch with an input
// the ranks could not load fails in the launcher, with Check's error.
func TestRunRejectsBadInputBeforeSpawn(t *testing.T) {
	in := Input{Dataset: "no-such-dataset"}
	want := in.Check()
	if want == nil {
		t.Fatal("Check accepted an unknown dataset")
	}
	if _, _, err := Run(Spec{Input: in, P: 2}); err == nil || err.Error() != want.Error() {
		t.Fatalf("Run = %v, want %v", err, want)
	}
}

// TestReadChildSpecRejectsHostileInput pins that a rank process turns
// every malformed launcher-to-child value or spec file into an error,
// never a panic.
func TestReadChildSpecRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	encode := func(cs childSpec) []byte {
		data, err := json.Marshal(cs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := childSpec{Spec: Spec{Input: testInput, P: 2, Seed: 1, Epoch: time.Now()},
		Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"}}
	goodPath := write("good.json", encode(good))

	rank, cs, artifact, err := readChildSpec("1:" + goodPath)
	if err != nil {
		t.Fatalf("a well-formed spec: %v", err)
	}
	if rank != 1 || cs.P != 2 || cs.Input != testInput || !cs.Epoch.Equal(good.Epoch) ||
		artifact != filepath.Join(dir, "rank1.json") {
		t.Fatalf("decoded rank %d, spec %+v, artifact %s", rank, cs, artifact)
	}

	full := encode(good)
	oneAddr := good
	oneAddr.Addrs = good.Addrs[:1]
	threeAddrs := good
	threeAddrs.Addrs = append([]string{"127.0.0.1:3"}, good.Addrs...)
	noRanks := good
	noRanks.P, noRanks.Addrs = 0, nil
	for _, tc := range []struct {
		name, value, wantErr string
	}{
		{"empty value", "", "malformed"},
		{"no separator", "1", "malformed"},
		{"no path", "1:", "malformed"},
		{"garbled rank", "x1:" + goodPath, "malformed"},
		{"missing file", "0:" + filepath.Join(dir, "absent.json"), "no such file"},
		{"directory", "0:" + dir, "launch spec"},
		{"truncated file", "0:" + write("truncated.json", full[:len(full)/2]), "unexpected end"},
		{"empty file", "0:" + write("empty.json", nil), "unexpected end"},
		{"not an object", "0:" + write("array.json", []byte("[1,2]")), "launch spec"},
		{"negative rank", "-1:" + goodPath, "outside a world of 2"},
		{"rank equal to P", "2:" + goodPath, "outside a world of 2"},
		{"huge rank", fmt.Sprintf("%d:%s", 1<<62, goodPath), "outside a world of 2"},
		{"zero ranks", "0:" + write("p0.json", encode(noRanks)), "outside a world of 0"},
		{"too few addresses", "0:" + write("short.json", encode(oneAddr)), "1 addresses for 2 ranks"},
		{"too many addresses", "0:" + write("long.json", encode(threeAddrs)), "3 addresses for 2 ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := readChildSpec(tc.value)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("readChildSpec(%q) = %v, want an error containing %q", tc.value, err, tc.wantErr)
			}
		})
	}
}

// requireSameRun fails t unless the two results carry bit-identical
// partitions, codelengths, MDL traces and deterministic comm counters.
func requireSameRun(t *testing.T, inproc, multi *core.Result) {
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
	if len(inproc.Communities) != len(multi.Communities) {
		t.Fatalf("partition sizes differ: %d vs %d", len(inproc.Communities), len(multi.Communities))
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

// writeHostileFile writes a weighted edge list meant to trip rank-local
// ingest: CRLF line ends, comments between edges, float weights,
// self-loops, every edge repeated in the other half of the file (so
// each pair of parallel edges straddles the range boundaries at p = 2,
// 3 and 4), and a header declaring trailing isolated vertices.
func writeHostileFile(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g, _ := gen.PlantedPartition(4, gen.PlantedConfig{N: 300, NumComms: 6, AvgDegree: 8, Mixing: 0.2})
	var b strings.Builder
	fmt.Fprintf(&b, "# vertices=%d planted\r\n", g.NumVertices()+7)
	var lines []string
	i := 0
	g.Edges(func(u, v int, _ float64) {
		i++
		w := 0.25 + float64(i%7)*0.5
		if i%23 == 0 {
			lines = append(lines, fmt.Sprintf("%d %d %g", u, u, w))
		}
		lines = append(lines, fmt.Sprintf("%d\t%d %g", u, v, w))
	})
	half := len(lines) / 2
	for k, l := range append(append([]string{}, lines...), lines[half:]...) {
		if k%40 == 0 {
			b.WriteString("% comment\r\n\r\n")
		}
		b.WriteString(l + "\r\n")
		if k == len(lines)-1 {
			// Repeat the first half's edges (weights halved) after the
			// whole list, so they too have parallel copies far away.
			for _, r := range lines[:half] {
				f := strings.Fields(r)
				w, _ := strconv.ParseFloat(f[2], 64)
				fmt.Fprintf(&b, "%s %s %g\r\n", f[1], f[0], w/2)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "hostile.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return path, want
}

// TestRankLocalIngestMatchesRun pins rank-local ingest: rank processes
// that each read 1/p of a file give the partition, graph size and
// codelength core.Run gives on the whole graph, and their bytes_read
// tile the file with no part over ⌈size/p⌉ plus one line.
func TestRankLocalIngestMatchesRun(t *testing.T) {
	path, g := writeHostileFile(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 307 {
		t.Fatalf("the header's isolated vertices are missing: %d vertices", g.NumVertices())
	}
	for _, p := range []int{1, 2, 3, 4} {
		cfg := core.Config{P: p, Seed: 42}
		want := core.Run(g, cfg)
		got, _, err := Run(Spec{Input: Input{Path: path}, P: p, Seed: cfg.Seed})
		if err != nil {
			t.Fatalf("p=%d: Run: %v", p, err)
		}
		if got.NumEdges != g.NumEdges() || len(got.Communities) != g.NumVertices() {
			t.Fatalf("p=%d: graph %d vertices, %d edges; file has %d, %d",
				p, len(got.Communities), got.NumEdges, g.NumVertices(), g.NumEdges())
		}
		if !slices.Equal(got.Communities, want.Communities) || got.Codelength != want.Codelength {
			t.Fatalf("p=%d: rank-local ingest differs from core.Run (L %v vs %v)", p, got.Codelength, want.Codelength)
		}
		if got.Partition != want.Partition {
			t.Fatalf("p=%d: layout %+v, core.Run has %+v", p, got.Partition, want.Partition)
		}
		total := int64(0)
		for r, a := range got.Ranks {
			in := a.Ingest
			if in == nil {
				t.Fatalf("p=%d: rank %d has no ingest report", p, r)
			}
			if limit := (st.Size()+int64(p)-1)/int64(p) + 64; in.BytesRead > limit {
				t.Errorf("p=%d: rank %d read %d bytes, limit %d", p, r, in.BytesRead, limit)
			}
			total += in.BytesRead
		}
		if total != st.Size() {
			t.Fatalf("p=%d: ranks read %d bytes of %d", p, total, st.Size())
		}
		// The in-process file run reports the same counters.
		inproc, err := core.RunFile(path, cfg)
		if err != nil {
			t.Fatalf("p=%d: RunFile: %v", p, err)
		}
		requireSameRun(t, inproc, got)
	}
}

// TestRankLocalIngestBadLine pins that a bad line fails every rank with
// the file's line number, wherever it falls among the ranks' parts: the
// rank processes exit with it (each prints it), and the in-process file
// run, whose ranks run the same ingest, returns it.
func TestRankLocalIngestBadLine(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d %d\n", i, i+1)
	}
	b.WriteString("7 9999999999\n")
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte(b.String()+"1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(Spec{Input: Input{Path: path}, P: 3, Seed: 1}); err == nil {
		t.Fatal("Run succeeded on a bad file")
	}
	if _, err := core.RunFile(path, core.Config{P: 3}); err == nil || err.Error() != "graph: line 201: vertex id 9999999999 exceeds 2147483646" {
		t.Fatalf("RunFile = %v, want the line-201 error", err)
	}
}
