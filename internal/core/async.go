package core

import (
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

// This file implements the asynchronous bounded-staleness sweep mode of
// stage 1 (Config.StalenessBound = k >= 1). The synchronized loop in
// cluster() barriers four times per sweep; clusterAsync removes every
// per-sweep collective and replaces the round structure with epochs:
//
//   - After each local sweep epoch, a rank broadcasts one packet to
//     every peer carrying (a) its per-module partial statistics — the
//     same records refresh round 1 ships to module homes, here sent to
//     everyone so each rank can rebuild global module statistics
//     without a second hop, (b) its local delegate-move candidates,
//     and (c) the current community of every owned boundary vertex it
//     has subscribers for. The packet's tag is its epoch number, so
//     per-source delivery order is the epoch order.
//   - Between local move passes the rank drains whatever peer packets
//     have already arrived (Comm.TryRecv — never blocking) and, when a
//     new epoch becomes complete (received from every peer), refreshes
//     its ghost communities and module statistics opportunistically,
//     mid-sweep.
//   - Epoch e may be swept against statistics from complete epoch g as
//     long as (e-1) - g <= k. Only when the bound would be exceeded
//     does the rank block, on the specific lagging peer's next packet.
//   - Termination needs no Allreduce: the per-epoch global move count
//     is a pure function of the epoch-stamped packet data, so every
//     rank evaluates the same convergence predicate on the same data
//     and stops independently. A stopped rank sends a "fin" packet and
//     counts as infinitely-complete for everyone else's gates, so no
//     gate can deadlock on it.
//
// Consequences, documented rather than hidden: with k >= 1 the final
// partition depends on message timing (which complete epoch a sweep
// happens to see), so async results are NOT bit-reproducible run to
// run — quality is enforced by threshold gates, not golden values.
// Delegate moves use the paper's literal approximate scheme (winner of
// the gathered local delta-Ls; exact two-round evaluation would need a
// synchronous allgather). k = 0 never enters this file: rankBody
// dispatches to the synchronous cluster(), which is what keeps the
// default bit-for-bit identical to a build without this file.
//
// Exactness is restored at the end: after every rank has seen every
// peer's fin, all hub decisions and ghost updates of all epochs have
// been applied identically everywhere, one synchronous swapGhostComms
// delivers authoritative boundary communities, and one synchronous
// refresh with forceFullInfo set (async epochs bypass the version
// bookkeeping, so short-form deduplication cannot be trusted) rebuilds
// exact global statistics and the exact final codelength.

// asyncHeader leads every asynchronous sweep packet.
type asyncHeader struct {
	Fin   bool  // sender finished; this is its last packet
	Epoch int   // sender's epoch; equals the packet's sequence tag
	Moves int64 // sender's local+deferred move total for the epoch
}

func (h asyncHeader) encode(e *mpi.Encoder) {
	e.PutBool(h.Fin)
	e.PutInt(h.Epoch)
	e.PutI64(h.Moves)
}

func decodeAsyncHeader(d *mpi.Decoder) asyncHeader {
	return asyncHeader{Fin: d.Bool(), Epoch: d.Int(), Moves: d.I64()}
}

// Fixed wire sizes of the counted packet sections (see messages.go for
// the record encoders, which async packets reuse).
const (
	asyncPartialWire = 4 * 8 // modulePartial
	asyncCandWire    = 3 * 8 // hubCandidate
)

// asyncEntry is one banked peer packet: the decoded header plus the
// section byte ranges (aliasing the received payload, which the
// transport hands over caller-owned).
type asyncEntry struct {
	epoch    int
	moves    int64
	payload  []byte // retains the sections; nil once released
	partials []byte
	cands    []byte
	ghosts   []byte
}

// asyncState is one rank's bookkeeping for the asynchronous epochs of
// one level.
type asyncState struct {
	lv *level
	k  int // staleness bound (>= 1)

	seq int // epochs this rank has swept and sent

	// entries[src][epoch] banks peer packets, indexed directly by epoch
	// (bounded by MaxSweeps). Processed entries are released, except a
	// frozen peer's last one, whose partials stand in for all later
	// epochs.
	entries     [][]asyncEntry
	recvThrough []int // newest banked epoch per peer; -1 = none yet
	frozen      []bool
	frozenEpoch []int // the frozen peer's last epoch (its final state)

	// Own per-epoch contributions to the deterministic epoch data: the
	// move totals the packets carried, and a copy of the delegate
	// candidates (sweep scratch is reused, so they must be copied).
	selfMoves []int64
	selfCands [][]hubCandidate

	// lastProcessed is the newest epoch whose ghost updates and hub
	// decisions have been applied and whose statistics were accumulated;
	// the gate keeps (e-1) - lastProcessed <= k.
	lastProcessed int
	stopRequested bool
	bestL         float64
	stalled       int

	// Accumulation scratch, dense by module id and stamp-guarded like
	// refreshScratch; holds the newest complete epoch's global sums.
	round   int32
	stamp   []int32
	sumPr   []float64
	exit    []float64
	members []int32
	touched []int32
	agg     mapeq.Aggregates

	// Per-destination packet encoders. These are deliberately NOT the
	// level's pooled SendBuffers: those are bound to the Alltoallv
	// lifetime contract, while async packets ride plain Sends (which
	// copy), so dedicated encoders are reusable every epoch.
	enc  []*mpi.Encoder
	pEnc *mpi.Encoder // partial-section scratch, shared by all dsts
	pdec mpi.Decoder
	gdec mpi.Decoder

	hist []int64 // staleness histogram; hist[s] counts epochs swept s stale
}

func newAsyncState(lv *level) *asyncState {
	p := lv.p
	as := &asyncState{
		lv:            lv,
		k:             lv.cfg.StalenessBound,
		entries:       make([][]asyncEntry, p),
		recvThrough:   make([]int, p),
		frozen:        make([]bool, p),
		frozenEpoch:   make([]int, p),
		lastProcessed: -1,
		bestL:         lv.agg.L(),
		stamp:         make([]int32, lv.idSpace),
		sumPr:         make([]float64, lv.idSpace),
		exit:          make([]float64, lv.idSpace),
		members:       make([]int32, lv.idSpace),
		enc:           make([]*mpi.Encoder, p),
		pEnc:          mpi.NewEncoder(1024),
		hist:          make([]int64, lv.cfg.StalenessBound+1),
	}
	for r := range as.recvThrough {
		as.recvThrough[r] = -1
		as.frozenEpoch[r] = -1
		if r != lv.rank {
			as.enc[r] = mpi.NewEncoder(1024)
		}
	}
	return as
}

func asyncTag(epoch int) int { return mpi.TagFor(mpi.KindModuleInfo, epoch) }

// encodeLocalPartials writes this rank's current per-module partial
// statistics into e in ascending module-id order and returns the record
// count. It is refresh round 1's computation (membership counted by the
// owner, exit by the arc owner) against the rank's current community
// view, without the subscription-request records — async packets are
// broadcast, so there is nothing to request.
func (lv *level) encodeLocalPartials(e *mpi.Encoder) (n int64) {
	rs := lv.rsch
	rs.round++
	round := rs.round
	touch := func(m int) {
		if rs.pStamp[m] != round {
			rs.pStamp[m] = round
			rs.pSumPr[m] = 0
			rs.pExit[m] = 0
			rs.pMembers[m] = 0
		}
	}
	for _, u := range lv.ownedActive {
		m := lv.comm[u]
		touch(m)
		rs.pSumPr[m] += lv.visit[u]
		rs.pMembers[m]++
	}
	for i, u := range lv.evalVerts {
		m := lv.comm[u]
		var exit float64
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			v := lv.adjV[j]
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
	for m := 0; m < lv.idSpace; m++ {
		if rs.pStamp[m] != round {
			continue
		}
		modulePartial{
			ModID:   m,
			SumPr:   rs.pSumPr[m],
			ExitPr:  rs.pExit[m],
			Members: int(rs.pMembers[m]),
		}.encode(e)
		n++
	}
	return n
}

// sendEpoch broadcasts this rank's epoch packet to every peer and banks
// the own-side epoch data (move total, candidate copy) for the
// deterministic convergence check. cands is the sweep's delegate
// proposal list for this epoch.
func (as *asyncState) sendEpoch(moves int64, cands []hubCandidate) {
	lv := as.lv
	epoch := as.seq
	as.pEnc.Reset()
	nPart := lv.encodeLocalPartials(as.pEnc)
	partialBytes := as.pEnc.Bytes()

	h := asyncHeader{Epoch: epoch, Moves: moves}
	for dst := 0; dst < lv.p; dst++ {
		if dst == lv.rank {
			continue
		}
		e := as.enc[dst]
		e.Reset()
		h.encode(e)
		e.PutInt(int(nPart))
		e.PutRaw(partialBytes)
		e.PutInt(len(cands))
		for _, hc := range cands {
			hc.encode(e)
		}
	}
	// Ghost sections differ per destination: one pass over the
	// subscription CSR appends each boundary vertex's current community
	// to exactly its subscribers' packets.
	for i, v := range lv.subVerts {
		gu := ghostUpdate{Vertex: v, Comm: lv.comm[v]}
		for _, dstRank := range lv.subRanks[lv.subOff[i]:lv.subOff[i+1]] {
			gu.encode(as.enc[dstRank])
		}
	}
	for dst := 0; dst < lv.p; dst++ {
		if dst == lv.rank {
			continue
		}
		lv.c.Send(dst, asyncTag(epoch), as.enc[dst].Bytes())
	}
	as.selfMoves = append(as.selfMoves, moves)
	as.selfCands = append(as.selfCands, append([]hubCandidate(nil), cands...))
	as.seq++
}

// bank parses and stores the next in-order packet from src. Returns
// true when the packet was src's fin.
func (as *asyncState) bank(src int, data []byte) bool {
	d := &as.pdec
	d.Reset(data)
	h := decodeAsyncHeader(d)
	want := as.recvThrough[src] + 1
	if h.Epoch != want {
		panicf("rank %d: async packet from %d out of order: epoch %d, want %d",
			as.lv.rank, src, h.Epoch, want)
	}
	if h.Fin {
		as.frozen[src] = true
		as.frozenEpoch[src] = as.recvThrough[src]
		return true
	}
	nPart := d.Int()
	off := len(data) - d.Remaining()
	pEnd := off + nPart*asyncPartialWire
	d.Reset(data[pEnd:])
	nCand := d.Int()
	cOff := pEnd + (len(data[pEnd:]) - d.Remaining())
	cEnd := cOff + nCand*asyncCandWire
	as.entries[src] = append(as.entries[src], asyncEntry{
		epoch:    h.Epoch,
		moves:    h.Moves,
		payload:  data,
		partials: data[off:pEnd],
		cands:    data[cOff:cEnd],
		ghosts:   data[cEnd:],
	})
	if len(as.entries[src]) != h.Epoch+1 {
		panicf("rank %d: async bank of %d/%d landed at index %d",
			as.lv.rank, src, h.Epoch, len(as.entries[src])-1)
	}
	as.recvThrough[src] = h.Epoch
	return false
}

// entryAt returns src's banked packet for exactly epoch g, or nil when
// src froze before g (its state no longer changes).
func (as *asyncState) entryAt(src, g int) *asyncEntry {
	if as.frozen[src] && g > as.frozenEpoch[src] {
		return nil
	}
	ent := &as.entries[src][g]
	if ent.payload == nil {
		panicf("rank %d: async entry %d/%d already released", as.lv.rank, src, g)
	}
	return ent
}

// release drops entries no longer reachable: everything before epoch g,
// except a frozen peer's final entry, which entryClamped keeps serving
// for all later epochs.
func (as *asyncState) release(src, g int) {
	for q := g - 1; q >= 0; q-- {
		ent := &as.entries[src][q]
		if ent.payload == nil {
			break
		}
		*ent = asyncEntry{epoch: ent.epoch}
	}
}

// drain consumes every already-arrived packet without blocking.
func (as *asyncState) drain() {
	lv := as.lv
	for src := 0; src < lv.p; src++ {
		if src == lv.rank || as.frozen[src] {
			continue
		}
		for {
			data, _, ok := lv.c.TryRecv(src, asyncTag(as.recvThrough[src]+1))
			if !ok {
				break
			}
			if as.bank(src, data) {
				break
			}
		}
	}
}

// await blocks until epoch e may be swept: some complete epoch g with
// (e-1) - g <= k must exist. It always blocks on a specific lagging
// peer's next in-order packet, never on AnySource.
func (as *asyncState) await(e int) {
	lv := as.lv
	need := e - 1 - as.k
	for as.completeEpoch() < need {
		src, low := -1, 0
		for r := 0; r < lv.p; r++ {
			if r == lv.rank || as.frozen[r] {
				continue
			}
			if src == -1 || as.recvThrough[r] < low {
				src, low = r, as.recvThrough[r]
			}
		}
		if src == -1 {
			return // every peer frozen: self-complete through e-1 >= need
		}
		data, _ := lv.c.Recv(src, asyncTag(as.recvThrough[src]+1))
		as.bank(src, data)
	}
}

// completeEpoch returns the newest epoch received from every live peer
// (frozen peers count as infinitely complete; this rank is complete
// through what it has sent).
func (as *asyncState) completeEpoch() int {
	g := as.seq - 1
	for src := range as.recvThrough {
		if src == as.lv.rank || as.frozen[src] {
			continue
		}
		if as.recvThrough[src] < g {
			g = as.recvThrough[src]
		}
	}
	return g
}

// processReady applies every newly complete epoch in ascending order —
// ghost communities, then the deterministic delegate decisions, then
// the global statistics accumulation feeding the convergence check —
// and materializes the newest one into the level's working tables.
// Returns the number of partial records summed (the span's op count).
func (as *asyncState) processReady() (ops int64) {
	upTo := as.completeEpoch()
	advanced := false
	for g := as.lastProcessed + 1; g <= upTo && !as.stopRequested; g++ {
		as.applyGhosts(g)
		hubMoves := as.applyHubMoves(g)
		n, totalMoves, numModules := as.accumulate(g)
		_ = numModules
		ops += n
		as.lastProcessed = g
		advanced = true
		as.checkStop(g, totalMoves+hubMoves)
	}
	if advanced && !as.stopRequested {
		as.materialize()
	}
	return ops
}

// applyGhosts installs every peer's epoch-g boundary communities. Ghost
// sections of different peers cover disjoint vertex sets (each peer
// reports only vertices it owns), so cross-peer order is irrelevant;
// per-peer ascending epoch order makes the newest value win.
func (as *asyncState) applyGhosts(g int) {
	lv := as.lv
	for src := 0; src < lv.p; src++ {
		if src == lv.rank {
			continue
		}
		ent := as.entryAt(src, g)
		if ent == nil {
			continue
		}
		d := &as.gdec
		d.Reset(ent.ghosts)
		for d.Remaining() > 0 {
			gu := decodeGhostUpdate(d)
			lv.comm[gu.Vertex] = gu.Comm
		}
	}
}

// applyHubMoves selects and applies epoch g's delegate moves. The
// selection rule is round A of broadcastDelegates (minimum local
// delta-L; ties to the lower target, then the lower proposing rank) on
// the gathered epoch-g candidates — data every rank eventually holds
// identically, so every rank applies the same moves. Returns the number
// applied, a deterministic part of epoch g's global move count.
func (as *asyncState) applyHubMoves(g int) (hubMoves int64) {
	lv := as.lv
	if lv.isHub == nil {
		return 0
	}
	ds := lv.dsch
	ds.round++
	nWin := 0
	consider := func(src int, hc hubCandidate) {
		pos := lv.hubIndex[hc.Hub]
		if ds.stamp[pos] != ds.round {
			ds.stamp[pos] = ds.round
			ds.cand[pos] = hc
			ds.proposer[pos] = int32(src)
			nWin++
			return
		}
		cur := ds.cand[pos]
		if hc.DeltaL < cur.DeltaL ||
			//dinfomap:float-ok deterministic tie-break on bit-identical decoded values
			(hc.DeltaL == cur.DeltaL && (hc.Target < cur.Target ||
				(hc.Target == cur.Target && src < int(ds.proposer[pos])))) {
			ds.cand[pos] = hc
			ds.proposer[pos] = int32(src)
		}
	}
	for src := 0; src < lv.p; src++ {
		if src == lv.rank {
			if g < len(as.selfCands) {
				for _, hc := range as.selfCands[g] {
					consider(src, hc)
				}
			}
			continue
		}
		ent := as.entryAt(src, g)
		if ent == nil {
			continue
		}
		d := &as.pdec
		d.Reset(ent.cands)
		for d.Remaining() > 0 {
			consider(src, decodeHubCandidate(d))
		}
	}
	if nWin == 0 {
		return 0
	}
	for pos := range lv.hubs {
		if ds.stamp[pos] != ds.round {
			continue
		}
		hc := ds.cand[pos]
		if hc.DeltaL < 0 && lv.comm[hc.Hub] != hc.Target {
			lv.comm[hc.Hub] = hc.Target
			hubMoves++
		}
	}
	return hubMoves
}

// accumulate sums epoch g's per-module partials from every rank into
// the dense scratch. Peers contribute their banked epoch-g records
// (a frozen peer its final ones); this rank contributes fresh records
// from its CURRENT communities, so its own vertices are never stale —
// the staleness bound applies to peers only. Also returns the epoch's
// global move total for the convergence check (own moves as sent, a
// frozen peer zero beyond its last epoch) and the live module count.
func (as *asyncState) accumulate(g int) (ops, totalMoves, numModules int64) {
	lv := as.lv
	as.round++
	as.touched = as.touched[:0]
	add := func(partials []byte) {
		d := &as.pdec
		d.Reset(partials)
		for d.Remaining() > 0 {
			mp := decodeModulePartial(d)
			m := mp.ModID
			if as.stamp[m] != as.round {
				as.stamp[m] = as.round
				as.sumPr[m] = 0
				as.exit[m] = 0
				as.members[m] = 0
				as.touched = append(as.touched, int32(m))
			}
			as.sumPr[m] += mp.SumPr
			as.exit[m] += mp.ExitPr
			as.members[m] += int32(mp.Members)
			ops++
		}
	}
	for src := 0; src < lv.p; src++ {
		if src == lv.rank {
			as.pEnc.Reset()
			lv.encodeLocalPartials(as.pEnc)
			add(as.pEnc.Bytes())
			totalMoves += as.selfMoves[g]
			continue
		}
		ent := as.entryClamped(src, g)
		add(ent.partials)
		if !as.frozen[src] || g <= as.frozenEpoch[src] {
			totalMoves += ent.moves
		}
		as.releaseEpoch(src, g)
	}
	var q, qlogq, qplogqp float64
	for _, m32 := range as.touched {
		m := int(m32)
		if as.members[m] == 0 {
			continue
		}
		numModules++
		q += as.exit[m]
		qlogq += mapeq.PlogP(as.exit[m])
		qplogqp += mapeq.PlogP(as.exit[m] + as.sumPr[m])
	}
	as.agg = mapeq.Aggregates{
		QTotal:     q,
		SumQLogQ:   qlogq,
		SumQPLogQP: qplogqp,
		SumPlogpP:  lv.vertexTerm,
	}
	return ops, totalMoves, numModules
}

// entryClamped is entryAt with frozen peers clamped to their final
// epoch: their last packet's statistics stand in for every later one.
func (as *asyncState) entryClamped(src, g int) *asyncEntry {
	if as.frozen[src] && g > as.frozenEpoch[src] {
		g = as.frozenEpoch[src]
	}
	ent := &as.entries[src][g]
	if ent.payload == nil {
		panicf("rank %d: async entry %d/%d already released", as.lv.rank, src, g)
	}
	return ent
}

// release semantics depend on freezing: a live peer's processed entries
// are dropped as accumulation passes them, a frozen peer keeps its
// final entry alive for clamped reads.
func (as *asyncState) releaseEpoch(src, g int) {
	if as.frozen[src] && g >= as.frozenEpoch[src] {
		g = as.frozenEpoch[src] // keep the final entry
	}
	as.release(src, g)
}

// materialize rebuilds the level's working module tables from the most
// recent accumulation: the module table and tracking list, the
// owner-side statistics (escape moves read them), and the global
// aggregates the sweep evaluates delta-L against. Version bookkeeping
// (modVersion/sentVersion/delivered) is deliberately untouched — the
// closing refresh runs with forceFullInfo for exactly that reason.
func (as *asyncState) materialize() {
	lv := as.lv
	for _, m := range lv.modList {
		lv.mods[m] = mapeq.Module{}
		lv.modTracked[m] = false
	}
	lv.modList = lv.modList[:0]
	for _, slot := range lv.ownedList {
		lv.ownedStats[slot] = mapeq.Module{}
		lv.ownedHas[slot] = false
	}
	lv.ownedList = lv.ownedList[:0]
	for _, m32 := range as.touched {
		m := int(m32)
		if as.members[m] == 0 {
			continue
		}
		mod := mapeq.Module{
			SumPr:   as.sumPr[m],
			ExitPr:  as.exit[m],
			Members: int(as.members[m]),
		}
		lv.mods[m] = mod
		lv.trackMod(m)
		if ownerOf(m, lv.p) == lv.rank {
			slot := m / lv.p
			lv.ownedStats[slot] = mod
			lv.ownedHas[slot] = true
			lv.ownedList = append(lv.ownedList, int32(slot))
		}
	}
	lv.agg = as.agg
	lv.refAgg = as.agg
}

// checkStop evaluates the convergence predicate on epoch g's global
// move count and this rank's codelength estimate — the same stall rule
// the synchronized loop votes on, minus the vote: the move count is a
// pure function of epoch-stamped data, and divergence on the
// estimate-based stall arm is safe because stopped ranks freeze rather
// than block anyone.
func (as *asyncState) checkStop(g int, totalMoves int64) {
	if totalMoves == 0 {
		as.stopRequested = true
		return
	}
	l := as.agg.L()
	if dampProb(g) > 0 {
		if l < as.bestL {
			as.bestL = l
		}
		return
	}
	// Stale-epoch improvements come in smaller steps than synchronized
	// rounds (conflicting concurrent moves cancel part of each epoch's
	// gain), so the synchronized loop's stall rule would fire here long
	// before the partition converges and dump the remaining work on the
	// synchronized polish phase — the most expensive place to do it.
	// A tighter margin and a longer patience keep convergence in the
	// cheap asynchronous epochs; the polish then stops after one
	// stalled round.
	stallEps := as.lv.cfg.Theta
	if rel := 1e-4 * as.bestL; rel > stallEps {
		stallEps = rel
	}
	if l >= as.bestL-stallEps {
		as.stalled++
		if as.stalled >= 3 {
			as.stopRequested = true
		}
	} else {
		as.stalled = 0
	}
	if l < as.bestL {
		as.bestL = l
	}
}

// finish runs the shutdown protocol: announce fin, then consume every
// peer's remaining packets through its fin (a blocking per-peer drain —
// effectively the join of the async phase), then replay all still-
// unapplied epochs' ghost updates and hub decisions in ascending order.
// Every rank ends up having applied the identical full epoch history,
// so hub communities — which no synchronous exchange covers — agree
// everywhere before the closing exact refresh.
func (as *asyncState) finish() {
	lv := as.lv
	fin := asyncHeader{Fin: true, Epoch: as.seq}
	as.pEnc.Reset()
	fin.encode(as.pEnc)
	for dst := 0; dst < lv.p; dst++ {
		if dst == lv.rank {
			continue
		}
		lv.c.Send(dst, asyncTag(as.seq), as.pEnc.Bytes())
	}
	for src := 0; src < lv.p; src++ {
		if src == lv.rank {
			continue
		}
		for !as.frozen[src] {
			data, _ := lv.c.Recv(src, asyncTag(as.recvThrough[src]+1))
			as.bank(src, data)
		}
	}
	last := -1
	for src := 0; src < lv.p; src++ {
		if src != lv.rank && as.frozenEpoch[src] > last {
			last = as.frozenEpoch[src]
		}
	}
	if n := as.seq - 1; n > last {
		last = n
	}
	for g := as.lastProcessed + 1; g <= last; g++ {
		as.applyGhosts(g)
		as.applyHubMoves(g)
	}
	as.lastProcessed = last
}

// clusterAsync is the bounded-staleness counterpart of cluster(): the
// asynchronous stage-1 clustering loop. costs receives this rank's
// per-phase work/traffic; the epochs' exchange cost accrues under
// trace.PhaseAsyncDrain.
func (lv *level) clusterAsync(costs phaseCosts) clusterOutcome {
	out := clusterOutcome{}
	prevKind := lv.c.SetKind(mpi.KindCollective)
	out.liveBefore = lv.c.AllreduceI64(int64(len(lv.ownedActive)), mpi.OpSum)
	lv.c.SetKind(prevKind)

	// Epoch "-1": one synchronous refresh gives every rank the exact
	// all-singleton statistics to sweep epoch 0 against.
	out.numModules = lv.refresh(costs, -1)

	as := newAsyncState(lv)
	s := lv.newScratch()
	prevAsyncKind := lv.c.SetKind(mpi.KindModuleInfo)
	lv.epochs = true
	for e := 0; e < lv.cfg.MaxSweeps; e++ {
		// --- Gate + process (async-drain span) ---
		jt := lv.jlog.Now()
		before := lv.c.Stats()
		lv.timer.Start(trace.PhaseAsyncDrain)
		as.drain()
		as.await(e)
		gateOps := as.processReady()
		stale := (e - 1) - as.lastProcessed
		if stale < 0 || stale > as.k {
			panicf("rank %d: epoch %d staleness %d outside [0, %d]", lv.rank, e, stale, as.k)
		}
		lv.timer.Stop(trace.PhaseAsyncDrain)
		after := lv.c.Stats()
		msgs, bytes := commDelta(before, after)
		costs.add(trace.PhaseAsyncDrain, trace.RankCost{Ops: gateOps, Msgs: msgs, Bytes: bytes})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(e),
			Phase: obs.PhaseAsyncDrain, Start: jt, End: lv.jlog.Now(),
			Stale: int32(stale),
			Ops:   gateOps, Msgs: msgs, Bytes: bytes,
			WaitNs: waitDelta(before, after),
		})
		if as.stopRequested {
			break
		}
		// Only epochs actually swept count toward the histogram — the
		// final gate above detects the stop without sweeping.
		as.hist[stale]++

		// --- Sweep epoch e, draining between move passes ---
		lv.timer.Start(trace.PhaseFindBestModule)
		jt = lv.jlog.Now()
		evalsBefore := lv.deltaEvals
		sweepMark := lv.c.Stats()
		lv.dampP = dampProb(e)
		moves, deferred := 0, 0
		var cands []hubCandidate
		midOps := int64(0)
		for pass := 0; pass < passBudget(e); pass++ {
			// Epochs install ghost statistics outside refresh, so no
			// change records exist: every pass is a full scan.
			lv.activateAll()
			m, df, cs := lv.sweep(s, 1)
			moves += m
			deferred = df
			cands = cs
			if m == 0 && pass > 0 {
				break
			}
			// Opportunistic mid-sweep refresh: bank whatever arrived and,
			// when a newer epoch completed, install its statistics before
			// the next pass. Never blocks.
			as.drain()
			midOps += as.processReady()
			if as.stopRequested {
				break
			}
		}
		lv.timer.Stop(trace.PhaseFindBestModule)
		costs.add(trace.PhaseFindBestModule, trace.RankCost{Ops: lv.deltaEvals - evalsBefore})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(e),
			Phase: obs.PhaseFindBestModule, Start: jt, End: lv.jlog.Now(),
			Moves: int32(moves), Deferred: int32(deferred),
			Ops: lv.deltaEvals - evalsBefore,
		})

		// --- Broadcast the epoch (flush half of the async-drain span) ---
		jt = lv.jlog.Now()
		lv.timer.Start(trace.PhaseAsyncDrain)
		as.sendEpoch(int64(moves+deferred), cands)
		lv.timer.Stop(trace.PhaseAsyncDrain)
		after = lv.c.Stats()
		msgs, bytes = commDelta(sweepMark, after)
		costs.add(trace.PhaseAsyncDrain, trace.RankCost{Ops: midOps, Msgs: msgs, Bytes: bytes})
		lv.jlog.Emit(obs.Event{
			Stage: lv.jstage, Outer: lv.jouter, Iter: int32(e),
			Phase: obs.PhaseAsyncDrain, Start: jt, End: lv.jlog.Now(),
			Stale: int32(stale),
			Ops:   midOps, Msgs: msgs, Bytes: bytes,
			WaitNs: waitDelta(sweepMark, after),
		})
		lv.jlog.PublishComm(lv.c.Stats())
		out.iterations++
	}

	// The polish below applies the return rule to its own moves only:
	// a return there usually repairs a move made on stale statistics.
	lv.epochs = false
	for i := range lv.lastFrom {
		lv.lastFrom[i] = -1
	}

	// --- Shutdown: join the mesh, then restore exactness ---
	jt := lv.jlog.Now()
	before := lv.c.Stats()
	lv.timer.Start(trace.PhaseAsyncDrain)
	as.finish()
	lv.timer.Stop(trace.PhaseAsyncDrain)
	after := lv.c.Stats()
	msgs, bytes := commDelta(before, after)
	costs.add(trace.PhaseAsyncDrain, trace.RankCost{Msgs: msgs, Bytes: bytes})
	lv.jlog.Emit(obs.Event{
		Stage: lv.jstage, Outer: lv.jouter, Iter: int32(out.iterations),
		Phase: obs.PhaseAsyncDrain, Start: jt, End: lv.jlog.Now(),
		Msgs: msgs, Bytes: bytes,
		WaitNs: waitDelta(before, after),
	})
	lv.c.SetKind(prevAsyncKind)
	lv.swapGhostComms()

	// --- Synchronous polish: converge exactly from the async state ---
	// The epochs above do the bulk of the optimization; a short
	// synchronized phase (typically two or three rounds — the partition
	// is near-converged and polish skips damping) finishes with the
	// exact loop. It repairs quality lost to stale or approximate
	// decisions and ends, as cluster() always does, on an exact refresh
	// and aggregates. forceFullInfo covers the polish's first refresh,
	// whose version bookkeeping the epochs bypassed.
	lv.forceFullInfo = true
	lv.polish = true
	pc := lv.cluster(costs)
	lv.polish = false
	out.iterations += pc.iterations
	out.numModules = pc.numModules
	out.finalL = pc.finalL
	out.staleHist = as.hist
	return out
}
