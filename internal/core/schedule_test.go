package core

import (
	"fmt"
	"sync"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/mpi"
)

// TestRoundSchedule pins the number of synchronizing calls (collectives
// and Alltoallvs, two synchronization points each) one synchronized
// round enters, from mpi.Stats diffs around each round: three, plus
// round B when some hub has a proposal, at stage 1; three at a merged
// level. The graph has hubs at p = 2 and 4; p = 1 delegates nothing.
// Almost every round here has a proposal, so a boundary exchange
// without any is checked on its own.
// The run report's per-round figures must agree.
func TestRoundSchedule(t *testing.T) {
	g := gen.PowerLawGraph(9, 1000, 1.9, 2, 200)
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := Config{P: p, Seed: 7}.withDefaults()
			var mu sync.Mutex
			var bRounds int
			mpi.Run(p, func(c *mpi.Comm) {
				bad := func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					t.Errorf("rank %d: "+format, append([]any{c.Rank()}, args...)...)
				}
				// rounds runs lv's round loop as cluster does and checks
				// each round's calls; wantB reports whether round B ran.
				rounds := func(lv *level, stage int, wantB func() bool) {
					lv.refresh(-1, 0)
					s := lv.newScratch()
					for iter := 0; iter < 12; iter++ {
						before := c.Stats()
						total, _ := lv.round(iter, s)
						d := c.Stats().Sub(before)
						want := int64(3)
						if wantB() {
							want = 4
							if c.Rank() == 0 {
								mu.Lock()
								bRounds++
								mu.Unlock()
							}
						}
						if calls := d.BarrierSyncs / 2; calls != want {
							bad("stage %d round %d entered %d synchronizing calls, want %d",
								stage, iter, calls, want)
						}
						if total == 0 {
							return
						}
					}
				}
				lv := stage1LevelOf(c, &cfg, g)
				if p > 1 && len(lv.hubs) == 0 {
					bad("no hubs at p = %d", p)
				}
				rounds(lv, 1, func() bool { return len(lv.hubs) > 0 && lv.dsch.nWin > 0 })
				// With no proposal anywhere, every rank skips round B.
				before := c.Stats()
				lv.swapBoundary(nil)
				lv.broadcastDelegates()
				lv.applyGhostUpdates()
				if calls := (c.Stats().BarrierSyncs - before.BarrierSyncs) / 2; calls != 1 {
					bad("exchange without proposals entered %d synchronizing calls, want 1", calls)
				}
				merged := newMergedLevel(c, &cfg, lv.idSpace, lv.mergeShuffle(),
					lv.vertexTerm, cfg.Seed, 1, lv.mem)
				rounds(merged, 2, func() bool { return false })
			})
			if p > 1 && bRounds == 0 {
				t.Error("no stage-1 round had a delegate proposal; round B never ran")
			}

			res := Run(g, Config{P: p, Seed: 7})
			if c := res.CollectivesPerRound; c.Stage1 < 3 || c.Stage1 > 4 || c.Stage2 != 3 {
				t.Errorf("collectives per round = %+v, want stage 1 in [3, 4], stage 2 = 3", c)
			}
		})
	}
}
