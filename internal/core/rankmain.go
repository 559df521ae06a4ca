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

// phaseCosts accumulates one rank's modeled cost per phase.
type phaseCosts map[string]trace.RankCost

func (pc phaseCosts) add(name string, c trace.RankCost) {
	cur := pc[name]
	cur.Ops += c.Ops
	cur.Msgs += c.Msgs
	cur.Bytes += c.Bytes
	pc[name] = cur
}

// commDelta returns the sent-side traffic between two stats snapshots.
func commDelta(before, after mpi.Stats) (msgs, bytes int64) {
	d := after.Sub(before)
	return d.MsgsSent + d.CollectiveMsgs, d.BytesSent + d.CollectiveBytes
}

// waitDelta returns the blocked time (late senders plus barrier skew)
// between two stats snapshots, for span wait attribution.
func waitDelta(before, after mpi.Stats) int64 {
	return after.BlockedNs() - before.BlockedNs()
}

// clusterOutcome reports one level's converged clustering.
type clusterOutcome struct {
	iterations int
	finalL     float64
	numModules int64
	liveBefore int64
}

// cluster runs the synchronized clustering loop on one level
// (Algorithm 2, lines 2-7 with delegates, lines 10-14 without):
// sweep, broadcast delegates, swap boundary info, refresh, until no rank
// moves a vertex. costs receives this rank's per-phase work/traffic.
func (lv *level) cluster(costs phaseCosts) clusterOutcome {
	out := clusterOutcome{}
	prevKind := lv.c.SetKind(mpi.KindCollective)
	out.liveBefore = lv.c.AllreduceI64(int64(len(lv.ownedActive)), mpi.OpSum)
	lv.c.SetKind(prevKind)

	// Iteration-0 refresh: exact singleton aggregates everywhere.
	// refresh journals its two Module_Info rounds as first-class spans.
	out.numModules = lv.refresh(costs, -1)

	s := lv.newScratch()
	bestL := lv.agg.L()
	stalled := 0
	for iter := 0; iter < lv.cfg.MaxSweeps; iter++ {
		// --- FindBestModule ---
		lv.timer.Start(trace.PhaseFindBestModule)
		jt := lv.jlog.Now()
		evalsBefore := lv.deltaEvals
		lv.dampP = dampProb(iter)
		moves, deferred, cands := lv.sweep(s, passBudget(iter))
		lv.timer.Stop(trace.PhaseFindBestModule)
		costs.add(trace.PhaseFindBestModule, trace.RankCost{Ops: lv.deltaEvals - evalsBefore})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(iter),
			Phase: obs.PhaseFindBestModule, Start: jt, End: lv.jlog.Now(),
			Moves: int32(moves), Deferred: int32(deferred),
			Ops: lv.deltaEvals - evalsBefore,
		})

		// --- BroadcastDelegates ---
		lv.timer.Start(trace.PhaseBcastDelegates)
		jt = lv.jlog.Now()
		before := lv.c.Stats()
		hubMoves := lv.broadcastDelegates(cands)
		after := lv.c.Stats()
		msgs, bytes := commDelta(before, after)
		lv.timer.Stop(trace.PhaseBcastDelegates)
		costs.add(trace.PhaseBcastDelegates, trace.RankCost{
			Ops: int64(len(cands)), Msgs: msgs, Bytes: bytes,
		})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(iter),
			Phase: obs.PhaseBcastDelegates, Start: jt, End: lv.jlog.Now(),
			Moves: int32(hubMoves),
			Ops:   int64(len(cands)), Msgs: msgs, Bytes: bytes,
			WaitNs: waitDelta(before, after),
		})

		// --- SwapBoundaryInfo ---
		lv.timer.Start(trace.PhaseSwapBoundary)
		jt = lv.jlog.Now()
		before = lv.c.Stats()
		swaps := lv.swapGhostComms()
		after = lv.c.Stats()
		msgs, bytes = commDelta(before, after)
		lv.timer.Stop(trace.PhaseSwapBoundary)
		costs.add(trace.PhaseSwapBoundary, trace.RankCost{
			Ops: int64(len(lv.ghosts)), Msgs: msgs, Bytes: bytes,
		})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(iter),
			Phase: obs.PhaseSwapBoundary, Start: jt, End: lv.jlog.Now(),
			Ops: int64(swaps), Msgs: msgs, Bytes: bytes,
			WaitNs: waitDelta(before, after),
		})

		// --- Module refresh (rounds 1-2 journal their own spans) ---
		out.numModules = lv.refresh(costs, int32(iter))

		// --- Other: global move count + convergence vote ---
		lv.timer.Start(trace.PhaseOther)
		jt = lv.jlog.Now()
		before = lv.c.Stats()
		prevKind := lv.c.SetKind(mpi.KindCollective)
		total := lv.c.AllreduceI64(int64(moves+hubMoves+deferred), mpi.OpSum)
		lv.c.SetKind(prevKind)
		after = lv.c.Stats()
		msgs, bytes = commDelta(before, after)
		lv.timer.Stop(trace.PhaseOther)
		costs.add(trace.PhaseOther, trace.RankCost{Msgs: msgs, Bytes: bytes})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(iter),
			Phase: obs.PhaseOther, Start: jt, End: lv.jlog.Now(),
			Msgs: msgs, Bytes: bytes,
			WaitNs: waitDelta(before, after),
		})
		// Refresh the live comm snapshot once per synchronized sweep.
		lv.jlog.PublishComm(lv.c.Stats())

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
	out.finalL = lv.agg.L()
	return out
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
	// iteration boundaries and diffed (never reset — live observers keep
	// seeing monotone totals). Outer 0 is stage 1 and includes its
	// preprocessing exchanges; each merged level adds one slice through
	// its assignment projection. The final full-assignment gather falls
	// after the last slice.
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
		jlog.PublishComm(cum)
	}

	// ---- Stage 1: parallel clustering with delegates ----
	flow := rs.flow
	lv := newStage1Level(c, cfg, rs.layout, flow.P, flow.Exit, flow.Norm(),
		flow.SumPlogpP, cfg.Seed)
	// The level holds this rank's arcs in CSR form now; nothing reads
	// the arc list again, so let it go for the rest of the run.
	rs.layout.RankArcs[rank] = nil
	lv.jlog, lv.jstage = jlog, 1

	costs1 := make(phaseCosts)
	t0 := time.Now()
	oc := lv.cluster(costs1)
	wall1 := time.Since(t0)

	initialL := initialCodelengthOf(lv)
	mdlTrace := []float64{oc.finalL}
	n0 := int64(lv.idSpace)
	mergeRate := []float64{float64(oc.liveBefore-oc.numModules) / float64(n0)}
	iters1 := oc.iterations
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
	costs2 := make(phaseCosts)
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
		arcs := cur.mergeShuffle(costs2)
		merged := newMergedLevel(c, cfg, idSpace, arcs, vertexTerm, cfg.Seed, outer)
		merged.jlog, merged.jstage, merged.jouter = jlog, 2, uint16(outer)
		oc = merged.cluster(costs2)
		iters2 += oc.iterations
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
	// Final cumulative snapshot for live observers (metrics scrape).
	jlog.PublishComm(c.Stats())
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
	rs.perRankPhase[rank] = costs1
	rs.perRankStage2Phase[rank] = costs2
	var stage2Total trace.RankCost
	//dinfomap:unordered-ok integer counter sums; addition order cannot change the totals
	for _, c := range costs2 {
		stage2Total.Ops += c.Ops
		stage2Total.Msgs += c.Msgs
		stage2Total.Bytes += c.Bytes
	}
	rs.perRankStage2[rank] = stage2Total
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
