package core

// Allocation budgets for the hot paths the dense-index rewrite and the
// pooled message buffers pay for: a steady-state sweep pass and a
// Module_Info wire round must not allocate at all, and a whole 4-rank
// Run stays under a fixed ceiling. Allocation counts repeat run to run
// on every host, so plain `go test` enforces them with no baseline
// file in the loop; how fast the code runs is the COST benchmark's
// question (bench/).

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
)

// TestSweepPassAllocFree converges a single-rank level, then asserts
// that further FindBestModule passes — full scans that evaluate every
// vertex's best target but apply no moves — run without allocating.
func TestSweepPassAllocFree(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 8, Mixing: 0.2,
	})
	h := NewBenchLevel(g, 7)
	for h.SweepPass() > 0 {
	}
	if avg := testing.AllocsPerRun(50, func() { h.SweepPass() }); avg != 0 {
		t.Fatalf("steady-state sweep pass: %v allocs/op, want 0", avg)
	}
}

// TestReactivateAllocFree asserts that the re-activation scan closing
// every refresh — one pass over the local arcs plus clearing the change
// records — allocates nothing.
func TestReactivateAllocFree(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 8, Mixing: 0.2,
	})
	h := NewBenchLevel(g, 7)
	for h.SweepPass() > 0 {
	}
	lv := h.lv
	activated := 0
	avg := testing.AllocsPerRun(50, func() {
		for i := range lv.active {
			lv.active[i] = false
		}
		for k, v := range lv.visList {
			lv.movedV[v] = k%31 == 0
			lv.changedM[lv.comm[v]] = k%97 == 0
		}
		lv.reactivate()
		activated = 0
		for _, on := range lv.active {
			if on {
				activated++
			}
		}
	})
	if avg != 0 {
		t.Fatalf("re-activation scan: %v allocs/op, want 0", avg)
	}
	if activated == 0 || activated == len(lv.active) {
		t.Fatalf("re-activation scan activated %d of %d vertices, want a strict subset",
			activated, len(lv.active))
	}
}

// TestStage1RoundAllocFree runs a two-rank stage-1 level to
// convergence, then asserts that further synchronized rounds (sweep,
// boundary exchange, delegate rounds, both refresh rounds) allocate no
// bytes: the first refresh sized every send buffer, receive slab and
// held list.
func TestStage1RoundAllocFree(t *testing.T) {
	g := plantedAllocGraph()
	var allocated [2]uint64
	var hubs [2]int
	// MemStats counts the whole process. With two Ps, 4 of 200 runs saw
	// one 192-byte allocation of the runtime's own while the ranks
	// blocked; on one P, none of 1,000 did.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mpi.Run(2, func(c *mpi.Comm) {
		cfg := Config{P: 2, Seed: 7}.withDefaults()
		lv := stage1LevelOf(c, &cfg, g)
		iter := lv.cluster().iterations
		// Warm-up rounds fill this scratch and let the per-round lists
		// (sweep candidates, delegate winners) reach their high water.
		s := lv.newScratch()
		for end := iter + 3; iter < end; iter++ {
			lv.round(iter, s)
		}
		// Both ranks are past their warm-up rounds when either reads.
		var before, after runtime.MemStats
		c.AllreduceI64(0, mpi.OpSum)
		runtime.ReadMemStats(&before)
		for end := iter + 5; iter < end; iter++ {
			lv.round(iter, s)
		}
		c.AllreduceI64(0, mpi.OpSum)
		runtime.ReadMemStats(&after)
		allocated[c.Rank()] = after.TotalAlloc - before.TotalAlloc
		hubs[c.Rank()] = len(lv.hubs)
	})
	if hubs[0] == 0 {
		t.Fatalf("stage-1 level has no delegates; the rounds skip the delegate exchange")
	}
	for r, b := range allocated {
		if b != 0 {
			t.Errorf("rank %d: five steady-state stage-1 rounds allocated %d bytes, want 0", r, b)
		}
	}
}

// codecRound encodes recs into e (reset first) and decodes them all
// back through d, returning the number of records decoded: one
// Module_Info wire round, mixing long and short forms.
func codecRound(e *mpi.Encoder, d *mpi.Decoder, recs []ModuleInfo) int {
	e.Reset()
	for _, m := range recs {
		if m.IsSent {
			m.encodeShort(e)
		} else {
			m.encode(e)
		}
	}
	d.Reset(e.Bytes())
	decoded := 0
	for d.Remaining() > 0 {
		_ = decodeModuleInfoMaybeShort(d)
		decoded++
	}
	return decoded
}

// TestCodecRoundAllocFree asserts a full Module_Info encode/decode
// round (mixed long and short forms) through a warm encoder and a
// reused decoder allocates nothing.
func TestCodecRoundAllocFree(t *testing.T) {
	recs := make([]ModuleInfo, 512)
	for i := range recs {
		recs[i] = ModuleInfo{
			ModID:      i * 7,
			SumPr:      float64(i) * 1e-4,
			ExitPr:     float64(i) * 1e-5,
			NumMembers: i%97 + 1,
			IsSent:     i%3 == 0,
		}
	}
	e := mpi.NewEncoder(1 << 10)
	d := mpi.NewDecoder(nil)
	// One warm-up round grows the encoder to its steady capacity.
	if got := codecRound(e, d, recs); got != len(recs) {
		t.Fatalf("warm-up decoded %d records, want %d", got, len(recs))
	}
	avg := testing.AllocsPerRun(100, func() {
		if got := codecRound(e, d, recs); got != len(recs) {
			t.Errorf("decoded %d records, want %d", got, len(recs))
		}
	})
	if avg != 0 {
		t.Fatalf("Module_Info codec round: %v allocs/op, want 0", avg)
	}
}

// TestMergeAllocFree asserts that the merge allocates nothing per arc.
// On a dense graph, a level's first merge shuffle — contraction,
// exchange, decode of the received arcs — allocates less than one byte
// per local arc: its buckets and row scratch are vertex- and id-sized,
// and no array per arc is built (the counting-sort contraction it
// replaced allocated 16 bytes per arc). Warmed up, the contraction
// allocates nothing at all.
func TestMergeAllocFree(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 1000, NumComms: 12, AvgDegree: 40, Mixing: 0.2,
	})
	mpi.Run(1, func(c *mpi.Comm) {
		cfg := Config{P: 1, Seed: 7}.withDefaults()
		lv := stage1LevelOf(c, &cfg, g)
		lv.cluster()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		arcs := len(lv.mergeShuffle())
		runtime.ReadMemStats(&after)
		if arcs == 0 || arcs >= len(lv.adjV) {
			t.Errorf("merge shuffled %d of %d arcs, want a contraction", arcs, len(lv.adjV))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(lv.adjV)) {
			t.Errorf("first merge shuffle of %d arcs allocated %d bytes, want under one per arc", len(lv.adjV), got)
		}
		if avg := testing.AllocsPerRun(20, func() {
			lv.sendBufs.Reset()
			lv.contract(lv.sendBufs)
		}); avg != 0 {
			t.Errorf("warmed-up contraction: %v allocs/op, want 0", avg)
		}
	})
}

// runAllocCeiling bounds the allocations of one 4-rank Run with seed 1
// on plantedAllocGraph. The run makes 1,315 allocations (1,367 under
// the race detector) in 116 refreshes over its ranks; the ceiling
// leaves 103 over 1,315, so one new allocation per vertex or per
// refresh fails.
const runAllocCeiling = 1418

// plantedAllocGraph is the planted graph of the end-to-end allocation
// budgets: 2,000 vertices in 40 communities, power-law degrees.
func plantedAllocGraph() *graph.Graph {
	g, _ := gen.PlantedPartition(11, gen.PlantedConfig{
		N: 2000, NumComms: 40, AvgDegree: 10, Mixing: 0.2, DegreeGamma: 2.5,
	})
	return g
}

// TestRunAllocBudget pins the allocation count of a whole distributed
// run: partitioning, flow init, both stages, merges and assembly.
func TestRunAllocBudget(t *testing.T) {
	g := plantedAllocGraph()
	cfg := Config{P: 4, Seed: 1}
	avg := testing.AllocsPerRun(3, func() { Run(g, cfg) })
	t.Logf("4-rank Run: %v allocs/op (ceiling %d)", avg, runAllocCeiling)
	if avg > runAllocCeiling {
		t.Fatalf("4-rank Run: %v allocs/op, want at most %d", avg, runAllocCeiling)
	}
}

// writePlantedFile writes a dense planted graph to path and returns its
// arc count (twice its edge count; it has no self-loops). The graph
// dies with the call, so a run of the file holds none of it.
func writePlantedFile(t *testing.T, path string) int {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 16000, NumComms: 160, AvgDegree: 60, Mixing: 0.2,
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return 2 * g.NumEdges()
}

// TestPhaseBoundariesReleaseLiveSet checks that each phase-boundary
// collection of a one-rank file run finds only what the next phase
// reads. After ingest the routed arc stores (16 bytes per arc) are
// dead, so the live heap stays below the rows (12 bytes per arc, an
// int32 target and a float64 weight, and 8 bytes per vertex) plus the
// routing buffers placement reuses (under 8 ingest chunks). After
// preprocessing the rows are dead, so it stays below the rows plus the
// stage-1 adjacency (12 bytes per arc); after the first merge the
// stage-1 level is dead, so it stays below the adjacency alone. Any
// phase's dead data kept reachable puts its boundary over the bound.
func TestPhaseBoundariesReleaseLiveSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	arcs := writePlantedFile(t, path)
	if arcs < 200_000 {
		t.Fatalf("planted graph has %d arcs, want at least 200,000", arcs)
	}
	res, err := RunFile(path, Config{P: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIterations < 2 {
		t.Fatalf("run never merged (%d outer iterations)", res.OuterIterations)
	}
	live := res.Ranks[0].LiveBytes
	rowBytes := int64(arcs)*12 + int64(len(res.Communities))*8
	adjBytes := int64(arcs) * 12
	bounds := [3]int64{rowBytes + 8*ingestChunk, rowBytes + adjBytes, adjBytes}
	t.Logf("%d arcs: live %d B after ingest (bound %d), %d B after preprocess (bound %d), %d B after the first merge (bound %d)",
		arcs, live[0], bounds[0], live[1], bounds[1], live[2], bounds[2])
	for i, b := range [3]struct{ when, what string }{
		{"after ingest", "the rows and routing buffers"},
		{"after preprocessing", "the rows plus the stage-1 adjacency"},
		{"after the first merge", "the stage-1 adjacency"},
	} {
		if live[i] <= 0 || live[i] >= bounds[i] {
			t.Errorf("live heap %s = %d bytes, want in (0, %d): %s of %d arcs",
				b.when, live[i], bounds[i], b.what, arcs)
		}
	}
}

// TestRanksShareBoundaryCollections checks that the ranks of an
// in-process run, which share one heap, pay one forced collection per
// phase boundary between them rather than one each, on an in-memory
// graph and on a file, and that every rank still reads the live heap at
// every boundary.
func TestRanksShareBoundaryCollections(t *testing.T) {
	g, _ := planted(5, 2000, 20, 0.2)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: 4, Seed: 1}
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Run", func() (*Result, error) { return Run(g, cfg), nil }},
		{"RunFile", func() (*Result, error) { return RunFile(path, cfg) }},
	} {
		before := forcedCycles()
		res, err := tc.run()
		cycles := forcedCycles() - before
		if err != nil {
			t.Fatal(err)
		}
		if res.OuterIterations < 2 {
			t.Fatalf("%s never merged (%d outer iterations)", tc.name, res.OuterIterations)
		}
		if cycles != 3 {
			t.Errorf("%s at p = %d forced %d collections, want 3: one per phase boundary", tc.name, cfg.P, cycles)
		}
		for r, a := range res.Ranks {
			for _, b := range a.LiveBytes {
				if b <= 0 {
					t.Errorf("%s rank %d live bytes %v, want every boundary read", tc.name, r, a.LiveBytes)
				}
			}
		}
	}
}
