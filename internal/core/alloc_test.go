package core

// Allocation budgets for the hot paths the dense-index rewrite and the
// pooled message buffers pay for: a steady-state sweep pass and a
// Module_Info wire round must not allocate at all. These are the same
// paths cmd/dinfomap-bench gates on allocs/op; asserting zero here
// keeps the budget enforced by plain `go test` too, with no baseline
// file in the loop.

import (
	"runtime"
	"testing"

	"dinfomap/internal/gen"
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
	if got := BenchCodecRound(e, d, recs); got != len(recs) {
		t.Fatalf("warm-up decoded %d records, want %d", got, len(recs))
	}
	avg := testing.AllocsPerRun(100, func() {
		if got := BenchCodecRound(e, d, recs); got != len(recs) {
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
