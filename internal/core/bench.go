package core

import (
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
)

// BenchLevel is a retained single-rank stage-1 level used by the
// benchmark suite and the allocation-budget tests to drive the hot
// paths (sweep passes, Module_Info refresh rounds) in isolation,
// outside a full Run. With p = 1 every collective self-completes, so
// the level's communicator stays usable after mpi.Run returns.
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

// BenchCodecRound encodes recs into e (reset first) and decodes them
// all back through d, returning the number of records decoded. It is
// the Module_Info wire round used by the codec benchmarks and the
// allocation-budget tests: with a warm encoder and a reused decoder the
// round allocates nothing.
func BenchCodecRound(e *mpi.Encoder, d *mpi.Decoder, recs []ModuleInfo) int {
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
