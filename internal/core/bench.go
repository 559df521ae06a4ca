package core

import (
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
)

// BenchLevel is a retained single-rank stage-1 level that drives the
// sweep hot path in isolation, outside a full Run. The COST benchmark
// (bench/traced.go) times its passes as core.sweep.pass_ns_per_vertex;
// BenchmarkSweepPass and the allocation-budget tests drive it too.
// With p = 1 every collective self-completes, so the level's
// communicator stays usable after mpi.Run returns.
type BenchLevel struct {
	lv *level
	s  *sweepScratch
}

// NewBenchLevel builds a single-rank level over g with singleton
// assignments and exact refresh-time aggregates, ready for SweepPass
// calls. Like every single-rank level it has no hubs.
func NewBenchLevel(g *graph.Graph, seed uint64) *BenchLevel {
	cfg := Config{P: 1, Seed: seed}.withDefaults()
	var lv *level
	mpi.Run(1, func(c *mpi.Comm) { lv = stage1LevelOf(c, &cfg, g) })
	b := &BenchLevel{lv: lv, s: lv.newScratch()}
	b.lv.refresh(-1, 0)
	return b
}

// SweepPass activates every vertex, runs one local move pass over the
// level's vertices, and returns the number of moves applied. Calling it
// until it returns 0 reaches the steady state where passes only scan
// and evaluate; the activation keeps each call a full-scan pass, so it
// times evaluation rather than an empty active set.
func (b *BenchLevel) SweepPass() int {
	b.lv.activateAll()
	moves, _, _ := b.lv.sweep(b.s, 1)
	return moves
}
