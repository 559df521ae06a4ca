package core

import (
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/mpi"
)

// TestActiveSetMissesFewMoves bounds what the sweep's active set misses.
// The set skips vertices whose neighbourhood did not change, ignoring
// the shift of the global exit total every move causes. After cluster()
// converges at p = 1, one full-scan pass (every vertex re-activated,
// damping off) must find almost nothing left to do: at most 1% of the
// vertices move and L improves by less than 1e-6 relative.
func TestActiveSetMissesFewMoves(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g, _ := gen.PlantedPartition(seed, gen.PlantedConfig{
			N: 3000, NumComms: 40, AvgDegree: 10, Mixing: 0.3,
		})
		cfg := Config{P: 1, Seed: seed}.withDefaults()
		var moves int
		var before, after float64
		mpi.Run(1, func(c *mpi.Comm) {
			lv := stage1LevelOf(c, &cfg, g)
			before = lv.cluster().finalL
			lv.activateAll()
			lv.dampP = 0
			moves, _, _ = lv.sweep(lv.newScratch(), 1)
			lv.refresh(0, 0)
			after = lv.agg.L()
		})
		n := g.NumVertices()
		if moves*100 > n {
			t.Errorf("seed %d: full-scan pass after convergence moved %d of %d vertices (> 1%%)",
				seed, moves, n)
		}
		if rel := (before - after) / before; rel >= 1e-6 {
			t.Errorf("seed %d: full-scan pass after convergence improved L by %.3g relative (%v -> %v)",
				seed, rel, before, after)
		}
		t.Logf("seed %d: %d missed moves, L %v -> %v", seed, moves, before, after)
	}
}
