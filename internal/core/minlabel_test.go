package core

// White-box tests of the minimum-label family's two bounce rules: the
// return rule of moveVertex and the hub swap rule of broadcastDelegates.

import (
	"slices"
	"sync"
	"testing"

	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
)

// withTwoRankLevels builds the stage-1 levels of a two-rank run of cfg
// on g, installs the assignment comm on both ranks, refreshes, and runs
// fn on every rank.
func withTwoRankLevels(g *graph.Graph, cfg Config, comm []int, fn func(lv *level)) {
	cfg.P = 2
	cfg = cfg.withDefaults()
	mpi.Run(2, func(c *mpi.Comm) {
		lv := stage1LevelOf(c, &cfg, g)
		copy(lv.comm, comm)
		lv.refresh(-1, 0)
		fn(lv)
	})
}

// ring adds the cycle through vs to b.
func ring(b *graph.Builder, vs ...int) {
	for i, v := range vs {
		b.AddEdge(v, vs[(i+1)%len(vs)])
	}
}

// TestHubSwapRule sets up two hubs, each in the other's better module:
// hub 24 sits in module 0 but links only to module 12's ring, hub 25
// the reverse. Both winning moves improve the exact delta-L, and
// applied together they would swap the hubs' modules. Only the move
// into the smaller id (25: 12 → 0) may be applied, identically on both
// ranks, in both delegate modes; NoMinLabel applies both.
func TestHubSwapRule(t *testing.T) {
	b := graph.NewBuilder(26)
	ring(b, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	ring(b, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)
	for v := 0; v < 12; v++ {
		b.AddEdge(25, v)
		b.AddEdge(24, 12+v)
	}
	g := b.Build()
	comm := make([]int, 26)
	for v := 12; v < 24; v++ {
		comm[v] = 12
	}
	comm[24], comm[25] = 0, 12

	for _, tc := range []struct {
		name    string
		cfg     Config
		want    [2]int // final modules of hubs 24 and 25
		skipped int64
	}{
		{"exact", Config{}, [2]int{0, 0}, 1},
		{"approx", Config{ApproxDelegates: true}, [2]int{0, 0}, 1},
		{"exact NoMinLabel", Config{NoMinLabel: true}, [2]int{12, 0}, 0},
		{"approx NoMinLabel", Config{ApproxDelegates: true, NoMinLabel: true}, [2]int{12, 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DHigh = 8 // only the two hubs have degree above 8
			var mu sync.Mutex
			comms := make([][]int, 2)
			withTwoRankLevels(g, cfg, comm, func(lv *level) {
				if !slices.Equal(lv.hubs, []int{24, 25}) {
					t.Errorf("rank %d: hubs %v, want [24 25]", lv.rank, lv.hubs)
					return
				}
				// Rank 0 proposes both swaps; the local delta-L only
				// has to be negative to win round A.
				var cands []hubCandidate
				if lv.rank == 0 {
					cands = []hubCandidate{{Hub: 24, Target: 12, DeltaL: -1}, {Hub: 25, Target: 0, DeltaL: -1}}
				}
				lv.swapBoundary(cands)
				moves := lv.broadcastDelegates()
				if moves != 2-int(tc.skipped) || lv.skippedSwaps != tc.skipped {
					t.Errorf("rank %d: %d moves, %d skipped swaps; want %d and %d",
						lv.rank, moves, lv.skippedSwaps, 2-tc.skipped, tc.skipped)
				}
				mu.Lock()
				comms[lv.rank] = slices.Clone(lv.comm)
				mu.Unlock()
			})
			if t.Failed() {
				return
			}
			if got := [2]int{comms[0][24], comms[0][25]}; got != tc.want {
				t.Errorf("hubs 24, 25 in modules %v, want %v", got, tc.want)
			}
			if !slices.Equal(comms[0], comms[1]) {
				t.Errorf("ranks disagree on comm:\n  rank 0: %v\n  rank 1: %v", comms[0], comms[1])
			}
		})
	}
}

// TestReturnRule moves vertex 0 back into the odd ring's module, which
// it reaches only through rank 1's vertices and is marked as having
// left last. The return is refused when the ring's id is the larger one
// (leaving 0 inactive) and applied when it is the smaller one; the rule
// is off under NoMinLabel.
func TestReturnRule(t *testing.T) {
	// Odd vertices (rank 1) form a ring, vertex 0 (rank 0) links to
	// three of them, and the even vertices 2..8 form a ring of their own.
	b := graph.NewBuilder(10)
	ring(b, 1, 3, 5, 7, 9)
	ring(b, 2, 4, 6, 8)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 5)
	g := b.Build()
	// ringIn puts the odd ring in module m and vertex 0 in module from.
	ringIn := func(m, from int) []int {
		comm := []int{from, m, 2, m, 4, m, 6, m, 8, m}
		if from == 4 {
			comm[4] = 4 // vertex 0 shares module 4 with vertex 4
		}
		return comm
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		comm     []int
		moved    bool
		refusals int64
	}{
		{"into larger id", Config{}, ringIn(9, 0), false, 1},
		{"into smaller id", Config{}, ringIn(1, 4), true, 0},
		{"NoMinLabel", Config{NoMinLabel: true}, ringIn(9, 0), true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ringMod, from := tc.comm[1], tc.comm[0]
			withTwoRankLevels(g, tc.cfg, tc.comm, func(lv *level) {
				if lv.rank != 0 {
					return
				}
				s := lv.newScratch()
				i := int(lv.evalIndexOf[0])
				lv.lastFrom[i] = int32(ringMod)
				lv.active[i] = false // as sweep does before evaluating
				moved := lv.moveVertex(s, i, 0)
				if moved != tc.moved || lv.refusedReturns != tc.refusals {
					t.Errorf("moved %v with %d refused returns; want %v and %d",
						moved, lv.refusedReturns, tc.moved, tc.refusals)
				}
				want := from
				if tc.moved {
					want = ringMod
				}
				if lv.comm[0] != want {
					t.Errorf("vertex 0 in module %d, want %d", lv.comm[0], want)
				}
				if !tc.moved && lv.active[i] {
					t.Error("a refused return must leave the vertex inactive")
				}
				if tc.moved && lv.lastFrom[i] != int32(from) {
					t.Errorf("lastFrom %d after the move, want %d", lv.lastFrom[i], from)
				}
			})
		})
	}
}

// TestReturnRuleExemptsEscapes: vertex 8 carries a heavy self-loop and
// one link into the odd ring's module 1, where it sits; its own module
// 8 is empty, and escaping there is its best move. Escaping is a
// return into module 8 > 1 that the return rule would refuse were
// module 8 remote-reached, so the escape must be exempt from the rule:
// it is applied, and nothing is counted as a refused return.
func TestReturnRuleExemptsEscapes(t *testing.T) {
	b := graph.NewBuilder(10)
	ring(b, 1, 3, 5, 7, 9)
	ring(b, 0, 2, 4, 6)
	b.AddWeightedEdge(8, 8, 20)
	b.AddEdge(8, 1)
	g := b.Build()
	comm := []int{0, 1, 2, 1, 4, 1, 6, 1, 1, 1}
	withTwoRankLevels(g, Config{}, comm, func(lv *level) {
		if lv.rank != 0 {
			return
		}
		s := lv.newScratch()
		i := int(lv.evalIndexOf[8])
		lv.lastFrom[i] = 8
		if !lv.moveVertex(s, i, 8) || lv.comm[8] != 8 {
			t.Errorf("vertex 8 in module %d, want its escape into module 8", lv.comm[8])
		}
		if lv.refusedReturns != 0 {
			t.Errorf("%d refused returns, want 0", lv.refusedReturns)
		}
	})
}
