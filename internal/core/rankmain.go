package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

// PhaseCosts is one rank's modeled cost per phase over one stage,
// indexed by obs.PhaseID. The PhaseOuterIter slot stays zero: the
// iteration marker's counters repeat what the spans already counted.
type PhaseCosts [obs.NumPhases]trace.RankCost

// Stage 1 costs the phases below stage1Phases (its merge shuffle is
// costed as stage 2); stage 2 costs every phase below stage2Phases.
const (
	stage1Phases = obs.PhaseMergeShuffle
	stage2Phases = obs.PhaseOuterIter
)

// Total sums the table over phases.
func (pc *PhaseCosts) Total() trace.RankCost {
	var t trace.RankCost
	for _, c := range pc {
		t.Add(c)
	}
	return t
}

// span is one open phase of a level: when it opened and the rank's
// traffic counters at that moment.
type span struct {
	phase obs.PhaseID
	iter  int32
	start time.Duration
	stats mpi.Stats
}

// span opens phase for synchronized sweep iter (-1 = outside a sweep).
func (lv *level) span(phase obs.PhaseID, iter int32) span {
	return span{phase: phase, iter: iter, start: lv.jlog.Now(), stats: lv.c.Stats()}
}

// end closes sp. The traffic sent since the span opened (Alltoallv
// payloads plus modeled collective steps) and ops go to the level's
// cost table, and the same counters, the move counts and the blocked
// time go to the journal as one event.
func (lv *level) end(sp span, ops int64, moves, deferred int) {
	d := lv.c.Stats().Sub(sp.stats)
	c := trace.RankCost{Ops: ops, Msgs: d.MsgsSent + d.CollectiveMsgs, Bytes: d.BytesSent + d.CollectiveBytes}
	lv.costs[sp.phase].Add(c)
	lv.jlog.Emit(obs.Event{
		Stage: lv.jstage, Outer: lv.jouter, Iter: sp.iter,
		Phase: sp.phase, Start: sp.start, End: lv.jlog.Now(),
		Moves: int32(moves), Deferred: int32(deferred),
		Ops: c.Ops, Msgs: c.Msgs, Bytes: c.Bytes,
		WaitNs: d.BlockedNs(),
	})
}

// clusterOutcome reports one level's converged clustering.
type clusterOutcome struct {
	iterations int
	finalL     float64
	numModules int64
	liveBefore int64
	// roundSyncs counts the synchronizing calls (collectives and
	// Alltoallvs) the rank entered inside the round loop.
	roundSyncs int64
}

// cluster runs the synchronized clustering loop on one level
// (Algorithm 2, lines 2-7 with delegates, lines 10-14 without): rounds
// until no rank moves a vertex or the codelength stalls.
func (lv *level) cluster() clusterOutcome {
	out := clusterOutcome{}
	prevKind := lv.c.SetKind(mpi.KindCollective)
	out.liveBefore = lv.c.AllreduceI64(int64(len(lv.ownedActive)), mpi.OpSum)
	lv.c.SetKind(prevKind)

	// Iteration-0 refresh: exact singleton aggregates everywhere.
	out.numModules, _ = lv.refresh(-1, 0)

	s := lv.newScratch()
	bestL := lv.agg.L()
	stalled := 0
	// Each synchronizing call is two synchronization points.
	syncs := lv.c.Stats().BarrierSyncs
	for iter := 0; iter < lv.cfg.MaxSweeps; iter++ {
		var total int64
		total, out.numModules = lv.round(iter, s)
		out.iterations++
		if total == 0 {
			break
		}
		// Section 3.4: the loop also ends when there is "no more MDL
		// optimization" — simultaneous conflicting moves can keep the
		// move count positive indefinitely while the codelength has
		// effectively plateaued or oscillates. A round counts as a
		// stall unless it beats the best codelength seen so far by a
		// relative margin (~0.05%); two consecutive stalls end the
		// stage.
		l := lv.agg.L()
		if lv.dampP > 0 {
			// While damping defers moves, non-improving rounds are
			// expected; the stall guard engages once it decays.
			if l < bestL {
				bestL = l
			}
			continue
		}
		stallEps := lv.cfg.Theta
		if rel := 5e-4 * bestL; rel > stallEps {
			stallEps = rel
		}
		if l >= bestL-stallEps {
			stalled++
			if stalled >= 2 {
				break
			}
		} else {
			stalled = 0
		}
		if l < bestL {
			bestL = l
		}
	}
	out.roundSyncs = (lv.c.Stats().BarrierSyncs - syncs) / 2
	out.finalL = lv.agg.L()
	return out
}

// round runs synchronized round iter of cluster — sweep, swap boundary
// info, broadcast delegates, refresh — and returns the global move vote
// and module count. Each phase is a span costed into lv.costs.
//
// A round enters three synchronizing calls, four when some hub has a
// proposal: the boundary Alltoallv (ghost updates and round-A
// proposals), round B, and refresh rounds 1 and 2, the second of which
// also carries the MDL partials and the move vote.
func (lv *level) round(iter int, s *sweepScratch) (total, numModules int64) {
	it := int32(iter)
	sp := lv.span(obs.PhaseFindBestModule, it)
	evalsBefore := lv.deltaEvals
	lv.dampP = dampProb(iter)
	moves, deferred, cands := lv.sweep(s, passBudget(iter))
	lv.end(sp, lv.deltaEvals-evalsBefore, moves, deferred)

	// One Alltoallv ships ghost updates and round-A proposals; the
	// modeled SwapBoundaryInfo work is one update per ghost.
	sp = lv.span(obs.PhaseSwapBoundary, it)
	lv.swapBoundary(cands)
	lv.end(sp, int64(len(lv.ghosts)), 0, 0)

	// Round B reads the ghosts' old communities, so the received
	// updates are applied after it.
	sp = lv.span(obs.PhaseBcastDelegates, it)
	hubMoves := lv.broadcastDelegates()
	lv.applyGhostUpdates()
	lv.end(sp, int64(len(cands)), hubMoves, 0)

	// Module refresh: rounds 1-2 are spans of their own; round 2 also
	// sums the global move count for the convergence vote.
	numModules, total = lv.refresh(it, int64(moves+hubMoves+deferred))
	return total, numModules
}

// rankMain is the SPMD program each simulated rank executes: the full
// Algorithm 2. It labels the goroutine's profiler samples with the rank
// id, so a -cpuprofile taken over a run splits per simulated rank
// (go tool pprof -tagfocus rank=3).
func (rs *runState) rankMain(c *mpi.Comm) {
	pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(c.Rank())),
		func(context.Context) { rs.rankBody(c) })
}

// rankBody is the algorithm proper, run under the rank's pprof label.
func (rs *runState) rankBody(c *mpi.Comm) {
	cfg := rs.cfg
	rank := c.Rank()
	p := c.Size()
	jlog := cfg.Journal.Rank(rank)

	// Per-outer-iteration slices: cumulative counters snapshotted at
	// iteration boundaries and diffed (never reset). Outer 0 is stage 1
	// and includes its preprocessing exchanges; each merged level adds
	// one slice through its assignment projection. The final
	// full-assignment gather falls after the last slice.
	var iterRecs []obs.IterationReport
	var commMark mpi.Stats
	var evalMark int64
	iterStart := time.Now()
	emitIter := func(stage, outer, sweeps int, evalsCum int64) {
		cum := c.Stats()
		d := cum.Sub(commMark)
		commMark = cum
		wall := time.Since(iterStart)
		iterStart = time.Now()
		ops := evalsCum - evalMark
		evalMark = evalsCum
		iterRecs = append(iterRecs, obs.IterationReport{
			Outer: outer, Stage: stage, Sweeps: sweeps, Ops: ops,
			WallNs:     wall.Nanoseconds(),
			Comm:       obs.CommFromStats(d),
			CommByKind: obs.ByKindFromStats(d),
		})
		// Journal boundary marker: zero-duration so per-rank span start
		// times stay monotone; counters carry the iteration delta.
		now := jlog.Now()
		jlog.Emit(obs.Event{
			Stage: uint8(stage), Outer: uint16(outer), Iter: -1,
			Phase: obs.PhaseOuterIter, Start: now, End: now,
			Ops: ops, Msgs: d.MsgsSent + d.CollectiveMsgs,
			Bytes:  d.BytesSent + d.CollectiveBytes,
			WaitNs: d.BlockedNs(),
		})
	}

	// ---- Preprocessing: this rank's rows, then its stage-1 input ----
	// One pooled send set serves the ingest, the preprocessing
	// exchanges and every level.
	mem := newRankMem(c)
	rows, ingest, err := rs.src.rows(c, mem.sb)
	rs.perRankIngest[rank] = ingest
	if err != nil {
		rs.errs[rank] = err
		return
	}
	in := preprocess(c, cfg, rows, mem.sb)
	rs.perRankPart[rank] = in.part
	if rank == 0 {
		rs.out.numEdges = in.numEdges
	}
	//dinfomap:float-ok exact emptiness guard: weight is a sum of strictly positive addends
	if in.flow.TotalWeight == 0 {
		// No edges: every vertex is its own module, as Run answers an
		// edgeless graph without running ranks.
		if rank == 0 {
			rs.out.communities = make([]int, in.n)
			for u := range rs.out.communities {
				rs.out.communities[u] = u
			}
		}
		return
	}

	// ---- Stage 1: parallel clustering with delegates ----
	lv := newStage1Level(c, cfg, in, mem, cfg.Seed)
	// The level holds this rank's arcs in CSR form now; nothing reads
	// the arc list again, so let it go for the rest of the run.
	in.arcs = nil
	lv.jlog, lv.jstage = jlog, 1

	costs1 := lv.costs
	t0 := time.Now()
	oc := lv.cluster()
	wall1 := time.Since(t0)

	initialL := initialCodelengthOf(lv)
	mdlTrace := []float64{oc.finalL}
	n0 := int64(lv.idSpace)
	mergeRate := []float64{float64(oc.liveBefore-oc.numModules) / float64(n0)}
	iters1 := oc.iterations
	roundSyncs := [2]int64{oc.roundSyncs, 0}
	deltaEvals := lv.deltaEvals
	minLabel := [2]obs.MinLabelCounts{{
		RefusedReturns: lv.refusedReturns, SkippedSwaps: lv.skippedSwaps,
	}}
	emitIter(1, 0, iters1, deltaEvals)

	// Projection bookkeeping: this rank's owned original vertices.
	ownedOrig := make([]int, 0, lv.idSpace/p+1)
	for u := rank; u < lv.idSpace; u += p {
		ownedOrig = append(ownedOrig, u)
	}
	origComm := make([]int, len(ownedOrig))
	for i, u := range ownedOrig {
		origComm[i] = lv.comm[u]
	}

	// ---- Stage 2: merge, then parallel clustering without delegates ----
	// From the first merge shuffle on, every level costs into stage 2.
	costs2 := new(PhaseCosts)
	t0 = time.Now()
	prevL := oc.finalL
	prevLive := oc.numModules
	iters2 := 0
	idSpace := lv.idSpace
	vertexTerm := lv.vertexTerm
	cur := lv
	var next []int
	for outer := 1; outer < cfg.MaxOuterIterations; outer++ {
		if prevLive <= 1 {
			break
		}
		cur.costs = costs2
		arcs := cur.mergeShuffle()
		merged := newMergedLevel(c, cfg, idSpace, arcs, vertexTerm, cfg.Seed, outer, mem)
		merged.jlog, merged.jstage, merged.jouter = jlog, 2, uint16(outer)
		merged.costs = costs2
		oc = merged.cluster()
		iters2 += oc.iterations
		roundSyncs[1] += oc.roundSyncs
		deltaEvals += merged.deltaEvals
		minLabel[1].RefusedReturns += merged.refusedReturns
		minLabel[1].SkippedSwaps += merged.skippedSwaps

		next = merged.gatherAssignments(next)
		for i := range origComm {
			nc := next[origComm[i]]
			if nc < 0 {
				panicf("rank %d: community %d missing from gathered assignment", rank, origComm[i])
			}
			origComm[i] = nc
		}
		mdlTrace = append(mdlTrace, oc.finalL)
		mergeRate = append(mergeRate, float64(oc.liveBefore-oc.numModules)/float64(n0))
		emitIter(2, outer, oc.iterations, deltaEvals)
		improved := prevL - oc.finalL
		noMerge := oc.numModules == oc.liveBefore
		prevL = oc.finalL
		prevLive = oc.numModules
		cur = merged
		if improved < cfg.Theta || noMerge {
			break
		}
	}
	wall2 := time.Since(t0)

	// ---- Final gather: full assignment of original vertices ----
	prevKind := c.SetKind(mpi.KindAssignment)
	e := mpi.NewEncoder(len(ownedOrig) * 16)
	for i, u := range ownedOrig {
		e.PutInt(u)
		e.PutInt(origComm[i])
	}
	parts := c.AllgatherBytes(e.Bytes())
	c.SetKind(prevKind)
	full := make([]int, idSpace)
	for _, b := range parts {
		d := mpi.NewDecoder(b)
		for d.Remaining() > 0 {
			u := d.Int()
			full[u] = d.Int()
		}
	}

	// Publish per-rank measurements through the shared runState (each
	// rank writes only its own slot; rank 0 additionally writes the
	// rank-identical outputs).
	rs.perRankPhase[rank] = *costs1
	rs.perRankStage2Phase[rank] = *costs2
	rs.perRankWall1[rank] = wall1
	rs.perRankWall2[rank] = wall2
	rs.perRankEvals[rank] = deltaEvals
	rs.perRankMinLabel[rank] = minLabel
	rs.perRankIters[rank] = iterRecs
	if rank == 0 {
		rs.out.communities = full
		rs.out.mdlTrace = mdlTrace
		rs.out.mergeRate = mergeRate
		rs.out.initialL = initialL
		rs.out.stage1Iters = iters1
		rs.out.stage2Iters = iters2
		rs.out.roundSyncs = roundSyncs
	}
}

// initialCodelengthOf returns the all-singleton codelength of the
// original graph, computable locally from the preprocessing flow.
func initialCodelengthOf(lv *level) float64 {
	// Every vertex is a singleton module: aggregates follow directly
	// from the global flow arrays, identically on every rank.
	var q, qlogq, qplogqp float64
	for v := 0; v < lv.idSpace; v++ {
		q += lv.exitP[v]
		qlogq += mapeq.PlogP(lv.exitP[v])
		qplogqp += mapeq.PlogP(lv.exitP[v] + lv.visit[v])
	}
	return mapeq.PlogP(q) - 2*qlogq - lv.vertexTerm + qplogqp
}
