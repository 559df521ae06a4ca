package core

import (
	"dinfomap/internal/mapeq"
)

// sweepScratch holds reusable per-sweep buffers.
type sweepScratch struct {
	wTo     []float64 // indexed by community id
	touched []int
	visit   []int // one pass's active non-hub eval indices, shuffled
	cands   []hubCandidate
}

func (lv *level) newScratch() *sweepScratch {
	return &sweepScratch{
		wTo:   reuse(&lv.mem.wTo, lv.idSpace),
		visit: make([]int, 0, len(lv.evalVerts)),
	}
}

// maxLocalPasses bounds local move passes inside one synchronized
// FindBestModule phase.
const maxLocalPasses = 24

// passBudget limits local passes for a given synchronized iteration:
// 1, 2, 4 and 8 passes in rounds 0-3, then maxLocalPasses. Early rounds
// run few passes so boundary information propagates before rank-local
// greediness can lock in cross-boundary mistakes; later rounds run to
// local convergence (a pass with no move, or an empty active set) to
// keep the number of expensive synchronization rounds small.
func passBudget(iter int) int {
	if iter >= 4 {
		return maxLocalPasses
	}
	return 1 << iter
}

// dampProb returns the remote-move deferral probability for a
// synchronized round: strong early (when every rank sees the identical
// all-singleton opportunity set), gone by round 4.
func dampProb(iter int) float64 {
	switch {
	case iter < 2:
		return 0.5
	case iter < 4:
		return 0.25
	default:
		return 0
	}
}

// sweep runs one FindBestModule phase (Algorithm 2, line 3): "local
// clustering with duplicates". Low-degree vertices are moved with
// immediate local updates, like the sequential inner loop, for up to
// budget passes. A pass visits, in a fresh random order, only the active
// vertices: those not evaluated yet at this level, and those whose
// neighbourhood changed since their last evaluation — a neighbour moved
// in this sweep, or since the last refresh a neighbour moved on another
// rank or the vertex's or a neighbour's module changed (see reactivate).
// This is the neighbourhood-scoped move evaluation of Browet et al.
// Passes stop early when one applies no move or nothing is active.
// Delegate moves are only proposed (one evaluation of each active local
// hub portion after the passes), to be decided globally in the
// BroadcastDelegates phase.
//
// The minimum-label heuristic (Section 3.4) suppresses the vertex
// bouncing problem: when an owned singleton wants to join the singleton
// module of a vertex on another rank, both sides may decide the
// symmetric move in the same round and exchange places forever. The
// move is therefore applied only when the target label is smaller than
// the current one, making exactly one side win. The same rule covers a
// vertex returning into a remote-reached module it just left (see
// moveVertex) and, in broadcastDelegates, two hubs swapping modules.
func (lv *level) sweep(s *sweepScratch, budget int) (moves, deferred int, hubCands []hubCandidate) {
	if budget > maxLocalPasses {
		budget = maxLocalPasses
	}
	for pass := 0; pass < budget; pass++ {
		s.visit = s.visit[:0]
		for i, on := range lv.active {
			// Delegates are handled after local quiescence.
			if on && (lv.isHub == nil || !lv.isHub[lv.evalVerts[i]]) {
				s.visit = append(s.visit, i)
			}
		}
		if len(s.visit) == 0 {
			break
		}
		passMoves := 0
		lv.deferred = 0
		lv.rng.Shuffle(s.visit)
		for _, i := range s.visit {
			u := lv.evalVerts[i]
			if ownerOf(u, lv.p) != lv.rank {
				panicf("rank %d evaluating non-owned non-hub vertex %d", lv.rank, u)
			}
			lv.active[i] = false
			if lv.moveVertex(s, i, u) {
				passMoves++
			}
		}
		moves += passMoves
		deferred = lv.deferred
		if passMoves == 0 {
			break
		}
	}
	// Delegate proposal pass: evaluate each active local hub portion once.
	s.cands = s.cands[:0]
	for _, h := range lv.hubs {
		i := lv.evalIndexOf[h]
		if i < 0 || !lv.active[i] {
			continue
		}
		lv.active[i] = false
		if target, delta, ok := lv.bestTarget(s, int(i), h); ok {
			s.cands = append(s.cands, hubCandidate{Hub: h, Target: target, DeltaL: delta})
		}
		lv.clearWTo(s)
	}
	return moves, deferred, s.cands
}

// activateAll marks every eval vertex active, so the next pass is a
// full scan.
func (lv *level) activateAll() {
	for i := range lv.active {
		lv.active[i] = true
	}
}

// reactivate runs at the end of refresh. It activates every eval vertex
// u whose own module or some neighbour's module arrived as a full
// (changed) Module_Info record, or some neighbour of which moved since
// the previous refresh, then clears both change records. The shift of
// the global exit total (QTotal) that every move causes is deliberately
// not tracked: it changes every vertex's delta-L a little, and chasing
// it would bring back the full re-scan.
func (lv *level) reactivate() {
	for i, u := range lv.evalVerts {
		if lv.active[i] {
			continue
		}
		hit := lv.changedM[lv.comm[u]]
		for j := lv.evalOff[i]; !hit && j < lv.evalOff[i+1]; j++ {
			v := int(lv.adjV[j])
			hit = lv.movedV[v] || lv.changedM[lv.comm[v]]
		}
		lv.active[i] = hit
	}
	// Moves and ghost updates only touch visible vertices, and every
	// module delivered in round 2 is tracked in modList.
	for _, v := range lv.visList {
		lv.movedV[v] = false
	}
	for _, m := range lv.modList {
		lv.changedM[m] = false
	}
}

// bestTarget evaluates all neighbor modules of eval vertex index i
// (vertex u) and returns the best move, if any improves.
func (lv *level) bestTarget(s *sweepScratch, i, u int) (target int, delta float64, ok bool) {
	from := lv.comm[u]
	s.touched = s.touched[:0]
	for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
		v := int(lv.adjV[j])
		if v == u {
			continue
		}
		cv := lv.comm[v]
		//dinfomap:float-ok untouched-slot sentinel: cleared to exact 0 by clearWTo, only positive weights added
		if s.wTo[cv] == 0 {
			s.touched = append(s.touched, cv)
		}
		s.wTo[cv] += lv.adjW[j] * lv.inv2W
	}
	if len(s.touched) == 0 {
		return 0, 0, false
	}
	mv := mapeq.Move{PU: lv.visit[u], ExitU: lv.exitP[u], WToFrom: s.wTo[from]}
	best := 0.0
	bestC := from
	fromMod := lv.mods[from]
	for _, cv := range s.touched {
		if cv == from {
			continue
		}
		mv.WToTo = s.wTo[cv]
		lv.deltaEvals++
		if d := mapeq.DeltaL(lv.agg, fromMod, lv.mods[cv], mv); d < best-1e-15 {
			best = d
			bestC = cv
		}
	}
	// Leave s.wTo dirty; the caller that needs the weights reads them
	// before calling clearWTo.
	return bestC, best, bestC != from
}

// reachedRemotely reports whether eval vertex index i (vertex u) links
// into module c through a vertex this rank does not own or a hub: a
// module another rank may be moving into, or out of, in the same round.
// Only the one target a vertex would move to is asked about, so the row
// is rescanned for it rather than flagged during every evaluation.
func (lv *level) reachedRemotely(i, u, c int) bool {
	for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
		v := int(lv.adjV[j])
		if v != u && lv.comm[v] == c && (ownerOf(v, lv.p) != lv.rank || (lv.isHub != nil && lv.isHub[v])) {
			return true
		}
	}
	return false
}

func (lv *level) clearWTo(s *sweepScratch) {
	for _, cv := range s.touched {
		s.wTo[cv] = 0
	}
}

// moveVertex evaluates and, if allowed, applies the best move of owned
// low-degree vertex u (eval index i). Returns whether a move happened.
// A move refused by the singleton rule or deferred leaves u active, a
// return refused by the return rule leaves it inactive; an applied one
// marks u moved and activates its eval neighbours.
//
// Besides neighbor modules, an owned vertex may escape back to its own
// founder module when that module is currently empty (this rank is the
// module's home, so the emptiness check is authoritative). Sequential
// Infomap never needs this split move, but in the distributed setting
// simultaneous cross-rank joins evaluated against one-round-stale
// statistics can over-merge, and without an escape move the
// over-merging is irreversible once the graph contracts.
func (lv *level) moveVertex(s *sweepScratch, i, u int) bool {
	bestC, bestDelta, ok := lv.bestTarget(s, i, u)
	from := lv.comm[u]
	escape := false
	if from != u && lv.ownedStats[u/lv.p].Members == 0 && lv.mods[u].Members == 0 {
		mv := mapeq.Move{
			PU:      lv.visit[u],
			ExitU:   lv.exitP[u],
			WToFrom: s.wTo[from],
			WToTo:   0,
		}
		lv.deltaEvals++
		if d := mapeq.DeltaL(lv.agg, lv.mods[from], mapeq.Module{}, mv); d < bestDelta-1e-15 {
			bestC = u
			ok = true
			escape = true
		}
	}
	if !ok {
		lv.clearWTo(s)
		return false
	}
	// The rules below hold back moves into a remote-reached module.
	// Escapes retreat into an empty module and cannot bounce.
	remote := !escape && lv.reachedRemotely(i, u, bestC)
	// Minimum-label rule against symmetric singleton swaps across rank
	// boundaries: the bounce arises when u and a remote vertex v, both
	// in singleton modules, simultaneously adopt each other's module.
	if remote && !lv.cfg.NoMinLabel && bestC >= from &&
		lv.mods[bestC].Members == 1 && lv.mods[from].Members == 1 {
		lv.active[i] = true
		lv.clearWTo(s)
		return false
	}
	// Return rule, the same rule for vertices that already left: a move
	// back into the remote-reached module u last left is usually the
	// answer to a neighbour on another rank moving the other way in the
	// same round, and both would repeat it every round. Only the return
	// toward the smaller label is applied; the refused vertex stays
	// inactive until its neighbourhood changes again.
	if remote && !lv.cfg.NoMinLabel &&
		int32(bestC) == lv.lastFrom[i] && bestC > from {
		lv.refusedReturns++
		lv.clearWTo(s)
		return false
	}
	// Damping of cross-boundary moves: ranks sharing identical module
	// statistics tend to pile into the same attractive module in the
	// same round, over-merging past what any of them would accept with
	// current information. Early rounds defer each remote-target move
	// probabilistically, desynchronizing the herd; the probability
	// decays to zero so convergence on small graphs is unaffected.
	if remote && !lv.cfg.NoDamping && lv.dampP > 0 &&
		lv.rng.Float64() < lv.dampP {
		lv.deferred++
		lv.active[i] = true
		lv.clearWTo(s)
		return false
	}
	mv := mapeq.Move{
		PU:      lv.visit[u],
		ExitU:   lv.exitP[u],
		WToFrom: s.wTo[from],
		WToTo:   s.wTo[bestC],
	}
	lv.clearWTo(s)
	var nf, nt mapeq.Module
	lv.agg, nf, nt = mapeq.ApplyMove(lv.agg, lv.mods[from], lv.mods[bestC], mv)
	lv.mods[from] = nf
	lv.mods[bestC] = nt
	lv.trackMod(from)
	lv.trackMod(bestC)
	lv.comm[u] = bestC
	lv.movedV[u] = true
	lv.lastFrom[i] = int32(from)
	// A self-arc re-activates u too: merged-level vertices carry one, and
	// re-evaluating the mover from its new module costs almost no extra
	// evaluations while keeping codelength closer to the full re-scan
	// (largest scale-0.3 golden increase +0.16% with it, +0.23% without).
	for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
		if k := lv.evalIndexOf[int(lv.adjV[j])]; k >= 0 {
			lv.active[k] = true
		}
	}
	return true
}
