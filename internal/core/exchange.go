package core

import (
	"cmp"
	"math/bits"
	"slices"

	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// swapBoundary runs the round's one boundary exchange, the
// SwapBoundaryInfo phase with round A of BroadcastDelegates (Algorithm
// 2, line 4) folded in: a single Alltoallv carries the current
// community of each owned boundary vertex to the ranks ghosting it
// (every round; the paper observes this traffic is stable across
// iterations, Figure 8) and, at levels with delegates, this rank's best
// local delegate moves to every rank, self included.
//
// Every payload of a delegate level opens with the sender's proposal
// block (a count, then the candidates), so every rank decodes the same
// proposals in source-rank order — the order an allgather would deliver
// them in — and selects, per hub, the candidate with the minimum local
// delta-L (deterministic tie-breaks: lower target, then lower proposing
// rank). Winners are kept in the per-hub-position delegate scratch,
// stamped per round, for broadcastDelegates.
//
// The received ghost updates are held in lv.ghostIn, not applied: round
// B reads the ghosts' communities (localHubWeights) and must see the
// values it saw before the fold. Both are decoded out of the pooled
// result here, before the next collective reuses it.
func (lv *level) swapBoundary(cands []hubCandidate) {
	prevKind := lv.c.SetKind(mpi.KindGhostUpdate)
	defer lv.c.SetKind(prevKind)
	delegates := len(lv.hubs) > 0
	sb := lv.sendBufs
	sb.Reset()
	if delegates {
		for r := 0; r < lv.p; r++ {
			e := sb.For(r)
			e.PutInt(len(cands))
			for _, hc := range cands {
				hc.encode(e)
			}
		}
	}
	for i, v := range lv.subVerts {
		gu := ghostUpdate{Vertex: v, Comm: lv.comm[v]}
		for _, dstRank := range lv.subRanks[lv.subOff[i]:lv.subOff[i+1]] {
			gu.encode(sb.For(int(dstRank)))
		}
	}
	recv := lv.c.Alltoallv(sb.Bufs())

	if delegates {
		lv.dsch.round++
		lv.dsch.nWin = 0
	}
	// At most one update per ghost arrives, so the held list, sized for
	// every ghost, never grows.
	lv.ghostIn = lv.ghostIn[:0]
	d := &lv.dec
	for src, b := range recv {
		d.Reset(b)
		if delegates {
			for k := d.Int(); k > 0; k-- {
				lv.propose(src, decodeHubCandidate(d))
			}
		}
		for d.Remaining() > 0 {
			// Ghosts are never hubs, so no delegate move of this round
			// touches them: an update that matches now still matches
			// when the held updates are applied.
			if gu := decodeGhostUpdate(d); lv.comm[gu.Vertex] != gu.Comm {
				lv.ghostIn = append(lv.ghostIn, gu)
			}
		}
	}
}

// propose records src's round-A candidate hc if it beats the hub's
// current winner.
func (lv *level) propose(src int, hc hubCandidate) {
	ds := lv.dsch
	pos := lv.hubIndex[hc.Hub]
	if ds.stamp[pos] != ds.round {
		ds.stamp[pos] = ds.round
		ds.cand[pos] = hc
		ds.proposer[pos] = int32(src)
		ds.nWin++
		return
	}
	cur := ds.cand[pos]
	// The tie-break must use exact bit equality: every rank decodes the
	// same candidate bytes, so equal means identical, and an epsilon
	// would merge near-ties differently than the (target, rank)
	// ordering resolves them.
	if hc.DeltaL < cur.DeltaL ||
		//dinfomap:float-ok deterministic tie-break on bit-identical decoded values
		(hc.DeltaL == cur.DeltaL && (hc.Target < cur.Target ||
			(hc.Target == cur.Target && src < int(ds.proposer[pos])))) {
		ds.cand[pos] = hc
		ds.proposer[pos] = int32(src)
	}
}

// applyGhostUpdates applies the ghost communities swapBoundary held
// back, once round B is done reading the old ones.
func (lv *level) applyGhostUpdates() {
	for _, gu := range lv.ghostIn {
		lv.comm[gu.Vertex] = gu.Comm
		lv.movedV[gu.Vertex] = true
	}
}

// broadcastDelegates finishes the BroadcastDelegates phase on the
// round-A winners swapBoundary selected.
//
// By default a second round (round B) makes the decision *exact*: every
// rank contributes its local link weight between the hub and the
// winning target (and the hub's current module), and the proposing
// rank ships the target module's statistics, so all ranks evaluate the
// same global delta-L from identical inputs and apply the move only
// when it truly improves the codelength. Every rank decoded the same
// proposals, so when no hub has one every rank skips round B together.
// With Config.ApproxDelegates the round-A winner is applied directly on
// its local delta-L, which is the paper's literal scheme; the ablation
// benches show it degrades quality when a delegate's adjacency is
// spread thinly over many ranks.
//
// Winners are walked by ascending hub position — hubs is sorted, so
// that is ascending hub-id order with no key collection or sort.
//
// Improving moves are applied through the hub swap rule (see
// applyDelegateMoves). Returns the number of hub moves applied
// (identical on every rank).
func (lv *level) broadcastDelegates() int {
	ds := lv.dsch
	if len(lv.hubs) == 0 || ds.nWin == 0 {
		return 0
	}
	ds.sel = ds.sel[:0]
	for pos := range lv.hubs {
		if ds.stamp[pos] == ds.round {
			ds.sel = append(ds.sel, int32(pos))
		}
	}

	ds.accept = ds.accept[:0]
	if lv.cfg.ApproxDelegates {
		// The paper's literal scheme: apply the winning local candidate.
		for _, pos := range ds.sel {
			hc := ds.cand[pos]
			if hc.DeltaL < 0 && lv.comm[hc.Hub] != hc.Target {
				ds.accept = append(ds.accept, pos)
			}
		}
		return lv.applyDelegateMoves()
	}

	// ---- Round B: exact evaluation ----
	// Fixed-order weight block (2 float64 per winner hub), then the
	// proposer-supplied target module stats.
	prevKind := lv.c.SetKind(mpi.KindHubCandidate)
	defer lv.c.SetKind(prevKind)
	e := lv.enc
	e.Reset()
	for _, pos := range ds.sel {
		h := lv.hubs[pos]
		target := ds.cand[pos].Target
		from := lv.comm[h]
		wTo, wFrom := lv.localHubWeights(h, target, from)
		e.PutF64(wTo)
		e.PutF64(wFrom)
	}
	for _, pos := range ds.sel {
		if int(ds.proposer[pos]) == lv.rank {
			h := lv.hubs[pos]
			m := lv.mods[ds.cand[pos].Target]
			e.PutInt(h)
			e.PutF64(m.SumPr)
			e.PutF64(m.ExitPr)
			e.PutInt(m.Members)
		}
	}
	parts := lv.c.AllgatherBytes(e.Bytes())
	ds.sumTo = growF64(ds.sumTo, len(ds.sel))
	ds.sumFrom = growF64(ds.sumFrom, len(ds.sel))
	d := &lv.dec
	for _, b := range parts {
		d.Reset(b)
		for i := range ds.sel {
			ds.sumTo[i] += d.F64()
			ds.sumFrom[i] += d.F64()
		}
		for d.Remaining() > 0 {
			h := d.Int()
			ds.target[lv.hubIndex[h]] = mapeq.Module{
				SumPr: d.F64(), ExitPr: d.F64(), Members: d.Int(),
			}
		}
	}
	// All ranks now evaluate identical inputs: the refresh-time snapshot
	// aggregates and from-module stats (identical everywhere because
	// every rank subscribes to every hub's module), the proposer's
	// target stats, and the globally summed link weights.
	for i, pos := range ds.sel {
		h := lv.hubs[pos]
		hc := ds.cand[pos]
		from := lv.comm[h]
		if from == hc.Target {
			continue
		}
		mv := mapeq.Move{
			PU:      lv.visit[h],
			ExitU:   lv.exitP[h],
			WToFrom: ds.sumFrom[i],
			WToTo:   ds.sumTo[i],
		}
		dl := mapeq.DeltaL(lv.refAgg, lv.hubFrom[pos], ds.target[pos], mv)
		if dl < -1e-15 {
			ds.accept = append(ds.accept, pos)
		}
	}
	return lv.applyDelegateMoves()
}

// modPair is one delegate move's (from, target) module pair.
type modPair struct{ from, target int }

func cmpModPair(a, b modPair) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.target, b.target)
}

// applyDelegateMoves applies the round's improving delegate moves,
// listed by hub position in ds.accept, and returns how many it applied.
//
// Hub swap rule, the minimum-label rule for delegates: when two of the
// moves swap modules (A→B and B→A), only the move into the smaller id
// is applied. Both hubs were evaluated against the same snapshot, in
// which each one's module still held the other; applied together they
// trade places, and the next round proposes the same swap back. Every
// rank holds the same accepted list and the same hub modules, so every
// rank drops the same moves. The (from, target) pairs are sorted and
// each reverse pair binary-searched, which keeps the choice free of
// map iteration order.
func (lv *level) applyDelegateMoves() (moves int) {
	ds := lv.dsch
	swapRule := !lv.cfg.NoMinLabel && len(ds.accept) > 1
	if swapRule {
		ds.pairs = ds.pairs[:0]
		for _, pos := range ds.accept {
			ds.pairs = append(ds.pairs, modPair{lv.comm[lv.hubs[pos]], ds.cand[pos].Target})
		}
		slices.SortFunc(ds.pairs, cmpModPair)
	}
	// Moves change only their own hub's module, so from is read before
	// any move of this round is applied.
	for _, pos := range ds.accept {
		h := lv.hubs[pos]
		from, target := lv.comm[h], ds.cand[pos].Target
		if swapRule && target > from {
			if _, swapped := slices.BinarySearchFunc(ds.pairs, modPair{target, from}, cmpModPair); swapped {
				lv.skippedSwaps++
				continue
			}
		}
		lv.comm[h] = target
		lv.movedV[h] = true
		moves++
	}
	return moves
}

// growF64 returns s resized to length n with every element zeroed,
// reusing capacity when possible.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// localHubWeights returns this rank's normalized link weight between hub
// h and the members (as locally known) of the target and from modules.
func (lv *level) localHubWeights(h, target, from int) (wTo, wFrom float64) {
	i := lv.evalIndexOf[h]
	if i < 0 {
		return 0, 0
	}
	for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
		v := int(lv.adjV[j])
		if v == h {
			continue
		}
		switch lv.comm[v] {
		case target:
			wTo += lv.adjW[j] * lv.inv2W
		case from:
			wFrom += lv.adjW[j] * lv.inv2W
		}
	}
	return wTo, wFrom
}

// refresh rebuilds authoritative module statistics and the global Eq. 3
// aggregates (the Module_Info exchange of Algorithm 3 with the MDL
// reduction and the round's move vote folded into round 2). After
// refresh, every rank's module table is exact for all modules of its
// visible vertices, lv.agg holds the exact global aggregates, and the
// returned counts are the global number of non-empty modules and the
// global sum of vote (each rank's moves, hub moves and deferrals this
// round). Full (non-isSent) records mark their modules changed, and the
// closing reactivate call turns those marks and the moves recorded
// since the previous refresh into the next sweep's active set.
//
// The two Algorithm 3 rounds are journaled and costed as first-class
// spans (refresh-round1: local partials + shuffle to module homes +
// owner-side summation; refresh-round2: authoritative replies with the
// MDL partials + local table rebuild + aggregate sums). iter tags the
// spans with the synchronized sweep (-1 = setup refresh).
//
// Partials accumulate into stamp-guarded dense arrays by module id and
// are encoded by one ascending id scan (identical bytes to the old
// sorted-key encode); owner-side sums accumulate by owned slot and are
// walked by ascending slot, which is ascending module-id order. No step
// hashes, sorts, or allocates in the steady state.
func (lv *level) refresh(iter int32, vote int64) (numModules, total int64) {
	sp := lv.span(obs.PhaseRefreshRound1, iter)
	// Round 1 ships module partials; round 2 answers with authoritative
	// Module_Info.
	prevKind := lv.c.SetKind(mpi.KindModulePartial)
	defer lv.c.SetKind(prevKind)

	rs := lv.rsch
	rs.round++
	round := rs.round
	clear(rs.sends)
	touch := func(m int) {
		if rs.pStamp[m] != round {
			rs.pStamp[m] = round
			rs.pSumPr[m] = 0
			rs.pExit[m] = 0
			rs.pMembers[m] = 0
			rs.sends[dst(m, lv.p)]++
		}
	}

	// ---- Local partials ----
	// Membership: every live vertex is counted exactly once globally, by
	// its owner (delegate copies do not double-count).
	for _, u := range lv.ownedActive {
		m := lv.comm[u]
		touch(m)
		rs.pSumPr[m] += lv.visit[u]
		rs.pMembers[m]++
	}
	// Exit: every arc exists on exactly one rank, so summing local
	// crossing arcs over ranks counts each crossing edge once per side.
	for i, u := range lv.evalVerts {
		m := lv.comm[u]
		var exit float64
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			v := int(lv.adjV[j])
			if v != u && lv.comm[v] != m {
				exit += lv.adjW[j]
			}
		}
		//dinfomap:float-ok skip-empty guard: exit is a sum of strictly positive weights, exactly 0 iff none
		if exit != 0 {
			touch(m)
			rs.pExit[m] += exit * lv.inv2W
		}
	}
	// Subscriptions: we need fresh stats for the module of every visible
	// vertex; an all-zero partial acts as a pure request.
	for _, x := range lv.visList {
		touch(lv.comm[x])
	}

	// ---- Round 1: partials to module home ranks ----
	// With deduplication one record per module is sent; the NoDedup
	// ablation sends one record per visible vertex of the module,
	// reproducing the duplicated-information problem of Figure 3.
	// The ascending id scan encodes records in sorted module order, so
	// each destination buffer is byte-identical run to run.
	sb := lv.sendBufs
	sb.Reset()
	// touch counted each destination's records, so every buffer is
	// sized once: the level's first refresh, its largest, grows it in
	// one step rather than by repeated doubling.
	for r, k := range rs.sends {
		if k > 0 {
			sb.For(r).Grow(k * modulePartialBytes)
		}
	}
	r1Ops := int64(0)
	var dupCounts map[int]int
	if lv.cfg.NoDedup {
		dupCounts = make(map[int]int)
		for _, x := range lv.visList {
			dupCounts[lv.comm[x]]++
		}
	}
	for m := 0; m < lv.idSpace; m++ {
		if rs.pStamp[m] != round {
			continue
		}
		r1Ops++
		rec := modulePartial{
			ModID:   m,
			SumPr:   rs.pSumPr[m],
			ExitPr:  rs.pExit[m],
			Members: int(rs.pMembers[m]),
		}
		e := sb.For(dst(m, lv.p))
		rec.encode(e)
		if lv.cfg.NoDedup {
			// First copy carries the stats; duplicates carry zeros but
			// still cost wire bytes, as the naive scheme would.
			for i := 1; i < dupCounts[m]; i++ {
				modulePartial{ModID: m}.encode(e)
			}
		}
	}
	recv := lv.c.Alltoallv(sb.Bufs())

	// ---- Owner side: sum partials, bump versions, answer subscribers ----
	// Contributions accumulate in (source rank, record) order — the
	// float-summation order the golden results were produced with — and
	// each module's subscribers are marked in its bit set, which round 2
	// walks rank-ascending; sends now counts each rank's replies.
	d := &lv.dec
	words := subWords(lv.p)
	clear(rs.sends)
	for src, b := range recv {
		d.Reset(b)
		w, bit := src/64, uint64(1)<<(src%64)
		for d.Remaining() > 0 {
			mp := decodeModulePartial(d)
			slot := mp.ModID / lv.p
			subs := rs.oSubs[slot*words : (slot+1)*words]
			if rs.oStamp[slot] != round {
				rs.oStamp[slot] = round
				rs.oSumPr[slot] = 0
				rs.oExit[slot] = 0
				rs.oMembers[slot] = 0
				clear(subs)
			}
			rs.oSumPr[slot] += mp.SumPr
			rs.oExit[slot] += mp.ExitPr
			rs.oMembers[slot] += int32(mp.Members)
			if subs[w]&bit == 0 {
				subs[w] |= bit
				rs.sends[src]++
			}
		}
	}
	// Detect stat changes, count live modules and sum this rank's MDL
	// partials, walking owned slots ascending (= sorted module-id
	// order), which keeps the global aggregates bit-reproducible.
	// Versions are monotone
	// across the level's lifetime: a module that vanishes and reappears
	// must NOT restart at an old version number, or a subscriber whose
	// sentVersion matches the recycled number would keep stale
	// statistics after an isSent short-form response.
	var part [4]float64
	slots := len(rs.oStamp)
	for slot := 0; slot < slots; slot++ {
		if rs.oStamp[slot] != round {
			continue
		}
		mod := mapeq.Module{
			SumPr:   rs.oSumPr[slot],
			ExitPr:  rs.oExit[slot],
			Members: int(rs.oMembers[slot]),
		}
		if !lv.ownedHas[slot] || lv.ownedStats[slot] != mod {
			lv.modVersion[slot]++
		}
		if mod.Members > 0 {
			numModules++
			part[0] += mod.ExitPr
			part[1] += mapeq.PlogP(mod.ExitPr)
			part[2] += mapeq.PlogP(mod.ExitPr + mod.SumPr)
		}
	}
	part[3] = float64(numModules)
	// Clean up modules that vanished since the previous refresh: zero
	// the slot (the dense table's "missing" value) and treat the next
	// reappearance as changed.
	for _, slot := range lv.ownedList {
		if rs.oStamp[slot] != round {
			lv.ownedStats[slot] = mapeq.Module{}
			lv.ownedHas[slot] = false
			lv.modVersion[slot]++
		}
	}

	// Round-1 span closes here: partials shuffled and summed at owners.
	lv.end(sp, r1Ops, 0, 0)
	sp = lv.span(obs.PhaseRefreshRound2, iter)
	lv.c.SetKind(mpi.KindModuleInfo)

	// ---- Round 2: authoritative stats back to subscribers ----
	// Every payload, self included, opens with this rank's MDL partials
	// and its vote: round 2 doubles as the MDL reduction and the
	// convergence vote. Each buffer is sized for its full-form replies.
	sb.Reset()
	for r := 0; r < lv.p; r++ {
		e := sb.For(r)
		e.Grow(len(part)*8 + 8 + rs.sends[r]*moduleInfoWireSize)
		for _, x := range part {
			e.PutF64(x)
		}
		e.PutI64(vote)
	}
	rs.newOwned = rs.newOwned[:0]
	for slot := 0; slot < slots; slot++ {
		if rs.oStamp[slot] != round {
			continue
		}
		m := lv.rank + slot*lv.p
		mod := mapeq.Module{
			SumPr:   rs.oSumPr[slot],
			ExitPr:  rs.oExit[slot],
			Members: int(rs.oMembers[slot]),
		}
		lv.ownedStats[slot] = mod
		lv.ownedHas[slot] = true
		rs.newOwned = append(rs.newOwned, int32(slot))
		for w, set := range rs.oSubs[slot*words : (slot+1)*words] {
			for ; set != 0; set &= set - 1 {
				dstRank := w*64 + bits.TrailingZeros64(set)
				e := sb.For(dstRank)
				unchanged := !lv.cfg.NoDedup && lv.sentVersion[dstRank][slot] == lv.modVersion[slot]
				if unchanged {
					// Short form: the subscriber already has this version.
					ModuleInfo{ModID: m, IsSent: true}.encodeShort(e)
				} else {
					ModuleInfo{
						ModID:      m,
						SumPr:      mod.SumPr,
						ExitPr:     mod.ExitPr,
						NumMembers: mod.Members,
						IsSent:     false,
					}.encode(e)
					lv.sentVersion[dstRank][slot] = lv.modVersion[slot]
				}
			}
		}
	}
	lv.ownedList = append(lv.ownedList[:0], rs.newOwned...)
	recv = lv.c.Alltoallv(sb.Bufs())

	// ---- Update local module table (Algorithm 3, lines 22-32) ----
	for _, m := range lv.modList {
		lv.mods[m] = mapeq.Module{}
		lv.modTracked[m] = false
	}
	lv.modList = lv.modList[:0]
	r2Ops := int64(0)
	// The partials are summed from zero in source-rank order, the order
	// a fixed-order allreduce uses, so every rank gets bit-identical
	// aggregates.
	var tot [4]float64
	for _, b := range recv {
		d.Reset(b)
		for i := range tot {
			tot[i] += d.F64()
		}
		total += d.I64()
		for d.Remaining() > 0 {
			mi := decodeModuleInfoMaybeShort(d)
			r2Ops++
			var mod mapeq.Module
			if mi.IsSent {
				// Unchanged since the last full delivery: restore the
				// cached authoritative copy (the working table entry
				// may be dirty from this sweep's optimistic updates).
				if !lv.deliveredOk[mi.ModID] {
					panicf("rank %d: isSent marker for module %d never delivered",
						lv.rank, mi.ModID)
				}
				mod = lv.delivered[mi.ModID]
			} else {
				mod = mapeq.Module{
					SumPr:   mi.SumPr,
					ExitPr:  mi.ExitPr,
					Members: mi.NumMembers,
				}
				lv.delivered[mi.ModID] = mod
				lv.deliveredOk[mi.ModID] = true
				lv.changedM[mi.ModID] = true
			}
			lv.mods[mi.ModID] = mod
			lv.trackMod(mi.ModID)
		}
	}

	// ---- Global aggregates and module count ----
	lv.agg = mapeq.Aggregates{
		QTotal:     tot[0],
		SumQLogQ:   tot[1],
		SumQPLogQP: tot[2],
		SumPlogpP:  lv.vertexTerm,
	}
	numModules = int64(tot[3])
	// Snapshots for the consistent delegate decision of the next
	// iteration (see broadcastDelegates).
	lv.refAgg = lv.agg
	for i, h := range lv.hubs {
		lv.hubFrom[i] = lv.mods[lv.comm[h]]
	}
	lv.reactivate()

	// Round-2 span: authoritative replies delivered, table rebuilt,
	// aggregates summed.
	lv.end(sp, r2Ops, 0, 0)
	return numModules, total
}

func dst(m, p int) int { return ownerOf(m, p) }

// subWords is the number of 64-bit words in one slot's subscriber set.
func subWords(p int) int { return (p + 63) / 64 }
