package core

// Allocation budgets for the hot paths the dense-index rewrite and the
// pooled message buffers pay for: a steady-state sweep pass and a
// Module_Info wire round must not allocate at all, and a whole 4-rank
// Run stays under a fixed ceiling. Allocation counts repeat run to run
// on every host, so plain `go test` enforces them with no baseline
// file in the loop; how fast the code runs is the COST benchmark's
// question (bench/).

import (
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
		if arcs == 0 || arcs >= len(lv.adj) {
			t.Errorf("merge shuffled %d of %d arcs, want a contraction", arcs, len(lv.adj))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(lv.adj)) {
			t.Errorf("first merge shuffle of %d arcs allocated %d bytes, want under one per arc", len(lv.adj), got)
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
// on plantedAllocGraph. The run makes 5,484–5,486 allocations (5,501
// under the race detector); the ceiling leaves 0.5% over 5,487, so one
// new allocation per vertex, per refresh or per sweep pass fails.
const runAllocCeiling = 5514

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
