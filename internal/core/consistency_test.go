package core

// White-box consistency tests: these drive the stage-1 machinery
// directly and assert the cross-rank invariants the algorithm's
// correctness argument rests on (Section 3.4 of the paper):
//
//  1. after SwapBoundaryInfo + refresh, every rank's view of every
//     visible vertex's community equals the owner's view;
//  2. the refreshed global aggregates equal a from-scratch evaluation
//     of the owner assignment on the whole graph;
//  3. module statistics delivered to subscribers equal the
//     authoritative totals;
//  4. when the loop ends on a zero move vote, no still-active non-hub
//     vertex has an improving move (the active set lost nothing).

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
)

// runStage1WithChecks executes stage-1 clustering while verifying the
// invariants after every iteration. It reports whether the loop ended on
// a zero move vote (and so ran check 4) rather than on its iteration cap.
func runStage1WithChecks(t *testing.T, g *graph.Graph, p int, cfg Config) (converged bool) {
	t.Helper()
	cfgv := (&cfg).withDefaults()
	cfgv.P = p
	flow := mapeq.NewVertexFlow(g)
	n := g.NumVertices()

	snaps := make([][]int, p)
	visLists := make([][]int, p)
	modSnaps := make([]map[int]mapeq.Module, p)
	var mu sync.Mutex
	var violations []string
	zeroVotes := 0

	mpi.Run(p, func(c *mpi.Comm) {
		defer func() {}()
		lv := stage1LevelOf(c, &cfgv, g)
		mu.Lock()
		visLists[c.Rank()] = lv.visList
		mu.Unlock()
		lv.refresh(-1, 0)
		s := lv.newScratch()
		for iter := 0; iter < 12; iter++ {
			// The same round and convergence vote as cluster(): deferred
			// moves keep the loop alive.
			total, _ := lv.round(iter, s)

			// Publish this rank's state and check on rank 0.
			snap := make([]int, n)
			copy(snap, lv.comm)
			mods := make(map[int]mapeq.Module, len(lv.modList))
			for _, m := range lv.modList {
				mods[m] = lv.mods[m]
			}
			mu.Lock()
			snaps[c.Rank()] = snap
			modSnaps[c.Rank()] = mods
			mu.Unlock()
			c.Barrier()
			if c.Rank() == 0 {
				violations = append(violations,
					checkInvariants(g, flow, iter, p, snaps, visLists, modSnaps, lv.agg)...)
			}
			c.Barrier()
			if total == 0 {
				// (4) The active set left no improving move behind: a
				// pass over the still-active non-hub vertices, damping
				// off, applies nothing.
				lv.dampP = 0
				if m, _, _ := lv.sweep(s, 1); m > 0 {
					mu.Lock()
					violations = append(violations, fmt.Sprintf(
						"iter %d: rank %d converged with %d active improving vertices",
						iter, c.Rank(), m))
					mu.Unlock()
				}
				mu.Lock()
				zeroVotes++
				mu.Unlock()
				break
			}
		}
	})
	for _, v := range violations {
		t.Error(v)
	}
	if len(violations) > 0 {
		t.FailNow()
	}
	return zeroVotes == p
}

func checkInvariants(g *graph.Graph, flow *mapeq.VertexFlow,
	iter, p int,
	snaps, visLists [][]int, modSnaps []map[int]mapeq.Module, agg mapeq.Aggregates) (violations []string) {

	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	// (1) Visible community views agree with the owner.
	ownerComm := make([]int, g.NumVertices())
	for v := range ownerComm {
		ownerComm[v] = snaps[v%p][v]
	}
	for r := 0; r < p; r++ {
		for _, v := range visLists[r] {
			if snaps[r][v] != ownerComm[v] {
				bad("iter %d: rank %d sees comm[%d]=%d, owner says %d",
					iter, r, v, snaps[r][v], ownerComm[v])
			}
		}
	}
	// (2) Aggregates match a from-scratch evaluation.
	dense, k := graph.Renumber(ownerComm)
	mods := make([]mapeq.Module, k)
	inv2W := flow.Norm()
	for u := 0; u < g.NumVertices(); u++ {
		c := dense[u]
		mods[c].SumPr += flow.P[u]
		mods[c].Members++
		g.Neighbors(u, func(v int, w float64) {
			if v != u && dense[v] != c {
				mods[c].ExitPr += w * inv2W
			}
		})
	}
	ref := mapeq.AggregateModules(mods, flow.SumPlogpP)
	if math.Abs(ref.L()-agg.L()) > 1e-9 {
		bad("iter %d: refreshed L %v != recomputed %v", iter, agg.L(), ref.L())
	}
	// (3) Module tables agree with from-scratch statistics.
	byID := make(map[int]mapeq.Module)
	seen := make(map[int]int)
	for u, c := range ownerComm {
		if _, ok := seen[c]; !ok {
			seen[c] = dense[u]
		}
	}
	for id, di := range seen {
		byID[id] = mods[di]
	}
	for r := 0; r < p; r++ {
		for m, got := range modSnaps[r] {
			_ = m
			want, ok := byID[m]
			if !ok {
				if got.Members != 0 {
					bad("iter %d: rank %d has stats for dead module %d: %+v", iter, r, m, got)
				}
				continue
			}
			if got.Members != want.Members ||
				math.Abs(got.SumPr-want.SumPr) > 1e-9 ||
				math.Abs(got.ExitPr-want.ExitPr) > 1e-9 {
				bad("iter %d: rank %d module %d stats %+v, want %+v",
					iter, r, m, got, want)
			}
		}
	}
	return violations
}

func TestStage1InvariantsPlanted(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 400, NumComms: 8, AvgDegree: 8, Mixing: 0.2,
	})
	runStage1WithChecks(t, g, 4, Config{Seed: 3})
}

// TestStage1InvariantsPaperThreshold keeps the paper's literal
// d_high = p: at p = 4 on this graph (average degree 8) most vertices
// become hubs, a layout no default run uses but the invariants must
// survive.
func TestStage1InvariantsPaperThreshold(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 400, NumComms: 8, AvgDegree: 8, Mixing: 0.2,
	})
	runStage1WithChecks(t, g, 4, Config{Seed: 3, DHigh: 4})
}

// TestStage1InvariantsHubHeavy must end on a zero move vote (see
// TestStage1InvariantsTwoRanks), so check 4 runs with hubs on six ranks.
func TestStage1InvariantsHubHeavy(t *testing.T) {
	g := gen.PowerLawGraph(9, 1000, 1.9, 2, 200)
	if !runStage1WithChecks(t, g, 6, Config{Seed: 7}) {
		t.Fatal("hub-heavy stage 1 at p = 6 did not converge to a zero move vote in 12 iterations")
	}
}

func TestStage1InvariantsNoMinLabel(t *testing.T) {
	g, _ := gen.PlantedPartition(13, gen.PlantedConfig{
		N: 300, NumComms: 6, AvgDegree: 8, Mixing: 0.25,
	})
	runStage1WithChecks(t, g, 5, Config{Seed: 11, NoMinLabel: true})
}

func TestStage1InvariantsNoDedup(t *testing.T) {
	g, _ := gen.PlantedPartition(17, gen.PlantedConfig{
		N: 300, NumComms: 6, AvgDegree: 8, Mixing: 0.2,
	})
	runStage1WithChecks(t, g, 3, Config{Seed: 13, NoDedup: true})
}

func TestStage1InvariantsManyRanks(t *testing.T) {
	g, _ := gen.PlantedPartition(19, gen.PlantedConfig{
		N: 200, NumComms: 5, AvgDegree: 6, Mixing: 0.2,
	})
	runStage1WithChecks(t, g, 16, Config{Seed: 17})
}

// TestStage1InvariantsSingleRank and TestStage1InvariantsTwoRanks run
// the checks where the synchronized loop reaches a zero move vote, so
// check 4 is exercised on one rank and across a rank boundary. At
// p = 2 the return rule is what lets the loop get there: without it a
// residue of vertices bouncing between the ranks keeps the vote alive
// until cluster()'s stall rule ends the stage.
func TestStage1InvariantsSingleRank(t *testing.T) {
	g, _ := gen.PlantedPartition(23, gen.PlantedConfig{
		N: 600, NumComms: 10, AvgDegree: 8, Mixing: 0.3,
	})
	if !runStage1WithChecks(t, g, 1, Config{Seed: 5}) {
		t.Fatal("single-rank stage 1 did not converge to a zero move vote in 12 iterations")
	}
}

func TestStage1InvariantsTwoRanks(t *testing.T) {
	g, _ := gen.PlantedPartition(23, gen.PlantedConfig{
		N: 600, NumComms: 10, AvgDegree: 8, Mixing: 0.3,
	})
	if !runStage1WithChecks(t, g, 2, Config{Seed: 5}) {
		t.Fatal("two-rank stage 1 did not converge to a zero move vote in 12 iterations")
	}
}
