package core

import (
	"slices"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// level is one rank's state for one clustering level: the level-0 graph
// under delegate partitioning (stage 1), or a merged graph under 1D
// partitioning (stage 2 and deeper).
//
// Vertex ids live in a fixed id space [0, idSpace); at merged levels the
// live ids are the community founder ids, a sparse subset. Ownership is
// always id mod P, so the ids homed on this rank are rank, rank+P, ...;
// "slot" below means an owner-side dense index id/P for that sequence
// (ascending slot order is ascending id order).
//
// All per-level hot state is held in flat slices indexed by vertex id,
// hub position, or owned slot — never maps — so the sweep, exchange,
// and merge loops do no hashing, no map iteration, and no
// collect-then-sort passes: determinism-critical orders (ascending ids,
// fixed float accumulation) fall out of plain index scans.
type level struct {
	c   *mpi.Comm
	cfg *Config

	idSpace int
	p, rank int

	// The local evaluation adjacency.
	adjacency

	// isHub marks delegated vertices; nil at delegate-free levels.
	isHub []bool
	// hubs lists delegated vertex ids (identical on all ranks);
	// hubIndex maps a vertex id to its position in hubs (-1 = not a
	// hub), and hubFrom[i] snapshots, at refresh time, the stats of
	// the module currently holding hubs[i] (identical on all ranks).
	hubs     []int
	hubIndex []int32
	hubFrom  []mapeq.Module
	// ownedActive lists the live vertex ids owned by this rank.
	ownedActive []int
	// ghosts lists visible non-owned, non-hub vertex ids.
	ghosts []int
	// Ghost subscriptions in CSR form: owned vertex subVerts[i]
	// (ascending) is ghosted by ranks subRanks[subOff[i]:subOff[i+1]]
	// (ascending), so the per-sweep ghost-update encode is one scan.
	subVerts []int
	subOff   []int32
	subRanks []int32
	// ghostIn holds the round's received ghost updates that change a
	// community, from swapBoundary until applyGhostUpdates.
	ghostIn []ghostUpdate

	// Flow quantities, indexed by vertex id; only visible entries are
	// read. vertexTerm is the constant original-graph term of Eq. 3.
	visit      []float64
	exitP      []float64
	inv2W      float64
	vertexTerm float64

	// comm is the locally known assignment; valid for visible vertices.
	comm []int
	// mods is the locally known module table, dense over the id space.
	// Unknown modules hold the exact zero Module (the map-missing
	// convention of the old representation); modList tracks the slots
	// that may be non-zero, with modTracked as its membership bitmap,
	// so each refresh clears O(live) entries. It is mutated by local
	// moves during a sweep and rebuilt to authoritative values at every
	// refresh.
	mods       []mapeq.Module
	modList    []int
	modTracked []bool
	// delivered caches the last authoritative statistics received for
	// each module (deliveredOk marks slots that ever were). isSent
	// short-form responses resolve against this cache — NOT against
	// mods, whose entries may be dirty from the local sweep's
	// optimistic updates.
	delivered   []mapeq.Module
	deliveredOk []bool
	// agg holds the global Eq. 3 aggregates, exact after each refresh
	// and updated optimistically by local moves during a sweep.
	agg mapeq.Aggregates
	// refAgg is the refresh-time snapshot of agg, identical on all
	// ranks; delegate decisions evaluate against it so every rank
	// reaches the same verdict.
	refAgg mapeq.Aggregates
	// evalIndexOf maps a vertex id to its position in evalVerts
	// (-1 = not evaluated on this rank).
	evalIndexOf []int32
	// active marks, by eval index, the vertices the next sweep pass must
	// evaluate: all true when the level is built, cleared by each
	// evaluation, set again when the vertex's neighbourhood changes (see
	// sweep and reactivate).
	active []bool
	// lastFrom holds, by eval index, the module the vertex left on its
	// last applied move at this level (-1 = it has not moved); the
	// return rule of moveVertex reads it.
	lastFrom []int32
	// Change records between two refreshes, both by id over the id
	// space: movedV marks visible vertices whose community changed,
	// changedM modules that arrived as full Module_Info records. The
	// re-activation scan at the end of refresh consumes and clears them.
	movedV   []bool
	changedM []bool
	// visList caches the visible vertex ids, sorted.
	visList []int
	// Owner-side module state, dense by owned slot: ownedStats holds
	// the authoritative statistics of modules homed on this rank
	// (exact zero when dead), ownedHas marks the live slots, and
	// ownedList caches them ascending — all rebuilt by every refresh.
	ownedStats []mapeq.Module
	ownedHas   []bool
	ownedList  []int32
	// modVersion counts stat changes of modules owned by this rank,
	// monotone across the level's lifetime; sentVersion[dst][slot] is
	// the version last sent to rank dst, for isSent deduplication.
	modVersion  []int32
	sentVersion [][]int32

	// mem is the rank's memory every level reuses (see rankMem).
	mem *rankMem
	// sendBufs is the rank's pooled per-destination encoder set, reused
	// by every alltoallv-style exchange; enc and dec are the pooled
	// single-payload encoder and decoder for allgather rounds.
	sendBufs *mpi.SendBuffers
	enc      *mpi.Encoder
	dec      mpi.Decoder

	// rsch and dsch hold the refresh and delegate-round scratch arrays
	// (stamp-cleared per round, allocated once per level).
	rsch *refreshScratch
	dsch *delegateScratch

	// costs is the stage cost table every span of this level adds to;
	// jlog receives the spans as journal events (nil = journaling off);
	// jstage/jouter tag them with the clustering stage and merge round.
	costs  *PhaseCosts
	jlog   *obs.RankLog
	jstage uint8
	jouter uint16

	rng        *gen.RNG
	deltaEvals int64
	// dampP is the current remote-move deferral probability (set per
	// synchronized round by cluster; see dampProb).
	dampP float64
	// deferred counts remote moves deferred by damping in the latest
	// pass; deferred work keeps the convergence vote alive.
	deferred int
	// refusedReturns counts moves refused by the return rule, and
	// skippedSwaps delegate moves dropped by the hub swap rule, over
	// the level's lifetime.
	refusedReturns int64
	skippedSwaps   int64
}

// adjacency is a rank's evaluation arcs in CSR form, 12 bytes per arc:
// vertex evalVerts[i] (ascending) evaluates the arcs
// [evalOff[i], evalOff[i+1]) of adjV (neighbour) and adjW (weight). An
// arc's evaluation vertex is its row's, so it is not stored. evalOff
// always holds len(evalVerts)+1 offsets.
type adjacency struct {
	evalVerts []int
	evalOff   []int
	adjV      []int32
	adjW      []float64
}

// rankMem is the memory one rank's levels share: the id-space and
// owned-slot arrays (and the merged level's arc arrays) are allocated
// by the first level that needs them, or handed over by the stage-1
// level (its flow arrays), and passed, cleared, to every later level,
// so a run of several levels allocates them once. Only one level is
// live at a time: a level's successor is built from the arcs its merge
// shuffle returned, after which nothing reads the old level.
type rankMem struct {
	sb  *mpi.SendBuffers
	enc *mpi.Encoder

	comm                                   []int
	mods, delivered                        []mapeq.Module
	modTracked, deliveredOk, movedV, marks []bool
	changedM, live                         []bool
	evalIndexOf, counts, subPos            []int32
	visit, exitP, wTo                      []float64
	rsch                                   refreshScratch

	// The owner-side module state, by owned slot.
	ownedStats            []mapeq.Module
	ownedHas              []bool
	ownedList, modVersion []int32
	sentVersion           [][]int32

	// The contraction's buckets (cnt, byRow) and row accumulator, and
	// the merged level's arcs and adjacency.
	cnt    []int
	byRow  []int32
	rs     rowSum
	merged []mergedArc
	adj    adjacency
}

// newRankMem returns the memory of one rank, with its send set.
func newRankMem(c *mpi.Comm) *rankMem {
	return &rankMem{sb: c.NewSendBuffers(), enc: mpi.NewEncoder(256)}
}

// reuse returns *buf resliced to n and cleared, reallocating only when
// its capacity is short.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// refreshScratch holds refresh's per-round accumulators. The p* arrays
// are local partials by module id; the o* arrays are owner-side sums by
// owned slot. Entries are valid only when their stamp equals the
// current round, so no per-refresh clearing pass is needed.
type refreshScratch struct {
	round    int32
	pSumPr   []float64
	pExit    []float64
	pMembers []int32
	pStamp   []int32
	oSumPr   []float64
	oExit    []float64
	oMembers []int32
	oStamp   []int32
	// oSubs holds each owned slot's subscriber set, subWords(p) words
	// of one bit per rank.
	oSubs    []uint64
	newOwned []int32
	// sends counts the records this rank sends each rank in the current
	// round: partials in round 1, replies in round 2.
	sends []int
}

// delegateScratch holds the delegate rounds' per-round state, indexed
// by hub position (see level.hubIndex). stamp marks positions written
// this round and nWin counts them; sel lists them ascending, which is
// ascending hub-id order.
type delegateScratch struct {
	round    int32
	nWin     int
	stamp    []int32
	cand     []hubCandidate
	proposer []int32
	sel      []int32
	sumTo    []float64
	sumFrom  []float64
	target   []mapeq.Module
	// accept lists the hub positions of the round's improving moves, and
	// pairs their (from, target) modules sorted, for the hub swap rule.
	accept []int32
	pairs  []modPair
}

// ownedSlots returns the number of owner-side slots on this rank: the
// count of ids in [0, idSpace) with id mod P == rank.
func (lv *level) ownedSlots() int { return graph.OwnedCount(lv.idSpace, lv.rank, lv.p) }

// trackMod marks module m as possibly non-zero in the local table so
// the next refresh clears it.
func (lv *level) trackMod(m int) {
	if !lv.modTracked[m] {
		lv.modTracked[m] = true
		lv.modList = append(lv.modList, m)
	}
}

// initLocalState initializes the singleton assignment, the module
// table, ghost lists, and ghost subscriptions. Called by both level
// constructors after the adjacency is in place.
func (lv *level) initLocalState() {
	n := lv.idSpace
	// Visible vertices: eval vertices, their neighbors, owned vertices,
	// and hubs. One ascending scan over the mark array yields the
	// sorted list directly — no collect-then-sort.
	m := lv.mem
	seen := reuse(&m.marks, n)
	for _, u := range lv.evalVerts {
		seen[u] = true
	}
	for _, v := range lv.adjV {
		seen[v] = true
	}
	for _, u := range lv.ownedActive {
		seen[u] = true
	}
	for _, h := range lv.hubs {
		seen[h] = true
	}
	nVis := 0
	for _, s := range seen {
		if s {
			nVis++
		}
	}
	lv.visList = make([]int, 0, nVis)
	for v := 0; v < n; v++ {
		if seen[v] {
			lv.visList = append(lv.visList, v)
		}
	}

	lv.comm = reuse(&m.comm, n)
	for v := range lv.comm {
		lv.comm[v] = v
	}
	lv.mods = reuse(&m.mods, n)
	lv.modTracked = reuse(&m.modTracked, n)
	lv.modList = make([]int, 0, len(lv.visList))
	for _, v := range lv.visList {
		lv.mods[v] = mapeq.Module{SumPr: lv.visit[v], ExitPr: lv.exitP[v], Members: 1}
		lv.modList = append(lv.modList, v)
		lv.modTracked[v] = true
	}
	lv.delivered = reuse(&m.delivered, n)
	lv.deliveredOk = reuse(&m.deliveredOk, n)

	slots := lv.ownedSlots()
	lv.ownedStats = reuse(&m.ownedStats, slots)
	lv.ownedHas = reuse(&m.ownedHas, slots)
	lv.ownedList = reuse(&m.ownedList, slots)[:0]
	lv.modVersion = reuse(&m.modVersion, slots)
	if m.sentVersion == nil {
		m.sentVersion = make([][]int32, lv.p)
	}
	lv.sentVersion = m.sentVersion
	for r := range lv.sentVersion {
		lv.sentVersion[r] = reuse(&m.sentVersion[r], slots)
	}

	lv.evalIndexOf = reuse(&m.evalIndexOf, n)
	for v := range lv.evalIndexOf {
		lv.evalIndexOf[v] = -1
	}
	for i, u := range lv.evalVerts {
		lv.evalIndexOf[u] = int32(i)
	}
	lv.active = make([]bool, len(lv.evalVerts))
	lv.activateAll()
	lv.lastFrom = make([]int32, len(lv.evalVerts))
	for i := range lv.lastFrom {
		lv.lastFrom[i] = -1
	}
	lv.movedV = reuse(&m.movedV, n)
	lv.changedM = reuse(&m.changedM, n)
	if lv.isHub != nil {
		lv.hubIndex = make([]int32, n)
		for v := range lv.hubIndex {
			lv.hubIndex[v] = -1
		}
		for i, h := range lv.hubs {
			lv.hubIndex[h] = int32(i)
		}
		lv.hubFrom = make([]mapeq.Module, len(lv.hubs))
		lv.dsch = &delegateScratch{
			stamp:    make([]int32, len(lv.hubs)),
			cand:     make([]hubCandidate, len(lv.hubs)),
			proposer: make([]int32, len(lv.hubs)),
			sel:      make([]int32, 0, len(lv.hubs)),
			target:   make([]mapeq.Module, len(lv.hubs)),
			accept:   make([]int32, 0, len(lv.hubs)),
			pairs:    make([]modPair, 0, len(lv.hubs)),
		}
	}
	// The refresh scratch: stamps restart with the level's rounds, and
	// each slot's subscriber list is truncated when first stamped.
	rs := &m.rsch
	rs.round = 0
	reuse(&rs.pSumPr, n)
	reuse(&rs.pExit, n)
	reuse(&rs.pMembers, n)
	reuse(&rs.pStamp, n)
	reuse(&rs.oSumPr, slots)
	reuse(&rs.oExit, slots)
	reuse(&rs.oMembers, slots)
	reuse(&rs.oStamp, slots)
	reuse(&rs.oSubs, slots*subWords(lv.p))
	rs.newOwned = rs.newOwned[:0]
	reuse(&rs.sends, lv.p)
	lv.rsch = rs
	lv.sendBufs, lv.enc = m.sb, m.enc

	// Ghosts: visible, not owned, not a hub. visList is sorted, so the
	// ghost list comes out sorted too. Each round delivers at most one
	// update per ghost, so the held updates never outgrow the list.
	isGhost := func(v int) bool {
		return ownerOf(v, lv.p) != lv.rank && (lv.isHub == nil || !lv.isHub[v])
	}
	perOwner, nGhosts := make([]int, lv.p), 0
	for _, v := range lv.visList {
		if isGhost(v) {
			perOwner[ownerOf(v, lv.p)]++
			nGhosts++
		}
	}
	lv.ghosts = make([]int, 0, nGhosts)
	for _, v := range lv.visList {
		if isGhost(v) {
			lv.ghosts = append(lv.ghosts, v)
		}
	}
	lv.ghostIn = make([]ghostUpdate, 0, len(lv.ghosts))

	// Ghost registration: tell each ghost's owner that this rank needs
	// updates for it. This is part of preprocessing in the paper.
	sb := lv.sendBufs
	sb.Reset()
	for r, k := range perOwner {
		if k > 0 {
			sb.For(r).Grow(8 * k)
		}
	}
	for _, v := range lv.ghosts {
		sb.For(ownerOf(v, lv.p)).PutInt(v)
	}
	prevKind := lv.c.SetKind(mpi.KindSetup)
	recv := lv.c.Alltoallv(sb.Bufs())
	lv.c.SetKind(prevKind)

	// Build the subscription CSR: count per vertex, prefix offsets,
	// then a second decode pass filling ranks. Sources arrive in rank
	// order, so each vertex's rank list is ascending.
	counts := reuse(&m.counts, n)
	subPos := reuse(&m.subPos, n)
	total, nSub := int32(0), 0
	d := &lv.dec
	for _, b := range recv {
		d.Reset(b)
		for d.Remaining() > 0 {
			v := d.Int()
			if counts[v] == 0 {
				nSub++
			}
			counts[v]++
			total++
		}
	}
	lv.subVerts = make([]int, 0, nSub)
	for v := 0; v < n; v++ {
		if counts[v] > 0 {
			lv.subVerts = append(lv.subVerts, v)
		}
	}
	lv.subOff = make([]int32, len(lv.subVerts)+1)
	for i, v := range lv.subVerts {
		lv.subOff[i+1] = lv.subOff[i] + counts[v]
		subPos[v] = lv.subOff[i]
	}
	lv.subRanks = make([]int32, total)
	subTotals := make([]int, lv.p)
	for src, b := range recv {
		d.Reset(b)
		for d.Remaining() > 0 {
			v := d.Int()
			lv.subRanks[subPos[v]] = int32(src)
			subPos[v]++
			subTotals[src]++
		}
	}
	lv.sizeSendBuffers(subTotals)
}

// sizeSendBuffers sizes every send buffer once for the level's largest
// exchange, which is its first round's: every visible vertex is still a
// module of its own. Refresh round 1 ships one partial per visible
// vertex to its owner; round 2 answers every subscriber of an owned
// vertex in full, a subscriber being this rank itself, a rank ghosting
// the vertex (subTotals[r] counts rank r's subscriptions), or any rank
// for a hub; the boundary exchange carries the proposals and one update
// per subscription, every round.
func (lv *level) sizeSendBuffers(subTotals []int) {
	visOwned, myHubs, localHubs := make([]int, lv.p), 0, 0
	for _, v := range lv.visList {
		visOwned[ownerOf(v, lv.p)]++
	}
	for _, h := range lv.hubs {
		if ownerOf(h, lv.p) == lv.rank {
			myHubs++
		}
		if lv.evalIndexOf[h] >= 0 {
			localHubs++
		}
	}
	lv.sendBufs.Reset()
	for r := range visOwned {
		replies := subTotals[r] + myHubs
		if r == lv.rank {
			replies = visOwned[r]
		}
		swap := subTotals[r] * ghostUpdateBytes
		if len(lv.hubs) > 0 {
			swap += 8 + localHubs*hubCandidateBytes
		}
		lv.sendBufs.For(r).Grow(max(visOwned[r]*modulePartialBytes, 5*8+replies*moduleInfoWireSize, swap))
	}
}

// newStage1Level builds the delegate-partitioned level from this
// rank's preprocessing product, in the rank's memory mem.
func newStage1Level(c *mpi.Comm, cfg *Config, in *stage1Input, mem *rankMem, seed uint64) *level {
	rank := c.Rank()
	lv := &level{
		c: c, cfg: cfg,
		idSpace: in.n,
		p:       c.Size(), rank: rank,
		isHub:      in.isHub,
		visit:      in.flow.P,
		exitP:      in.flow.Exit,
		inv2W:      in.flow.Norm(),
		vertexTerm: in.flow.SumPlogpP,
		mem:        mem,
		costs:      new(PhaseCosts),
		rng:        gen.NewRNG(seed ^ (uint64(rank)+1)*0x9e3779b97f4a7c15),
	}
	// The flow arrays are the merged levels' too, once this level is gone.
	mem.visit, mem.exitP = in.flow.P, in.flow.Exit
	numHubs := 0
	for _, hub := range in.isHub {
		if hub {
			numHubs++
		}
	}
	lv.hubs = make([]int, 0, numHubs)
	lv.ownedActive = make([]int, 0, lv.ownedSlots())
	for v := 0; v < lv.idSpace; v++ {
		if in.isHub[v] {
			lv.hubs = append(lv.hubs, v)
		}
		if ownerOf(v, lv.p) == rank {
			lv.ownedActive = append(lv.ownedActive, v)
		}
	}

	// Placement wrote this rank's arcs as the level's adjacency.
	lv.adjacency = in.adj
	for i, u := range lv.evalVerts {
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			if int(lv.adjV[j]) == u {
				// Level-0 self-loops are stored once in the input graph;
				// merged levels store self-arcs with twice the intra
				// weight (both contraction directions land on the same
				// arc). Doubling here unifies the convention, so flow and
				// merge code treat every level identically.
				lv.adjW[j] *= 2
			}
		}
	}

	lv.initLocalState()
	return lv
}

// stage1LevelOf preprocesses rank c's rows of g and builds its stage-1
// level: the in-memory entry tests and BenchLevel use.
func stage1LevelOf(c *mpi.Comm, cfg *Config, g *graph.Graph) *level {
	mem := newRankMem(c)
	in := preprocess(c, cfg, g.Rows(c.Rank(), c.Size()), mem.sb)
	return newStage1Level(c, cfg, in, mem, cfg.Seed)
}

// mergedArc is one contracted arc received during distributed merging.
type mergedArc struct {
	U, V int32
	W    float64
}

// newMergedLevel builds a 1D-partitioned level from the contracted arcs
// this rank received in the merge shuffle (owned vertex u -> full
// adjacency of u, self-arcs carrying twice the intra weight).
func newMergedLevel(c *mpi.Comm, cfg *Config, idSpace int, arcs []mergedArc,
	vertexTerm float64, seed uint64, round int, mem *rankMem) *level {

	rank := c.Rank()
	lv := &level{
		c: c, cfg: cfg,
		idSpace: idSpace,
		p:       c.Size(), rank: rank,
		vertexTerm: vertexTerm,
		mem:        mem,
		costs:      new(PhaseCosts),
		rng:        gen.NewRNG(seed ^ (uint64(rank)+7)*0xbf58476d1ce4e5b9 ^ uint64(round)<<32),
	}

	// Accumulate parallel arcs: (u, v) pairs may arrive from several
	// source ranks. A stable counting sort buckets the arcs by u in
	// arrival order; each u's row then sums its arcs per v in arrival
	// order — the float-summation order the golden results were
	// produced with — and emits them ascending by v, so the CSR comes
	// out ascending by (u, v) with no comparison sort over the arcs.
	byU, end := mem.buckets(idSpace, len(arcs), func(i int) int { return int(arcs[i].U) })
	row := mem.row(idSpace)
	// The level has at most one arc per received arc.
	lv.evalOff = append(mem.adj.evalOff[:0], 0)
	lv.adjV = slices.Grow(mem.adj.adjV[:0], len(arcs))
	lv.adjW = slices.Grow(mem.adj.adjW[:0], len(arcs))
	lo := 0
	for u := 0; u < idSpace; u++ {
		hi := end[u]
		for _, idx := range byU[lo:hi] {
			row.add(arcs[idx].V, arcs[idx].W)
		}
		lo = hi
		if row.empty() {
			continue
		}
		for _, v := range row.sorted() {
			lv.adjV = append(lv.adjV, v)
			lv.adjW = append(lv.adjW, row.take(v))
		}
		lv.evalVerts = append(lv.evalVerts, u)
		lv.evalOff = append(lv.evalOff, len(lv.adjV))
	}
	mem.adj.evalOff, mem.adj.adjV, mem.adj.adjW = lv.evalOff, lv.adjV, lv.adjW
	lv.ownedActive = append(lv.ownedActive, lv.evalVerts...)

	// Flow exchange: every owner knows the full adjacency of its
	// vertices, so it computes their strength locally; an allgather
	// shares (id, strength, selfWeight) so each rank can fill in the
	// flow of its ghosts. The merged graph is orders of magnitude
	// smaller than the original (paper Section 3.2), so this collective
	// is cheap.
	e := mem.enc
	e.Reset()
	for i, u := range lv.evalVerts {
		strength, selfW := 0.0, 0.0
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			if int(lv.adjV[j]) == u {
				selfW += lv.adjW[j] / 2 // self-arc accumulated both directions
				strength += lv.adjW[j]
			} else {
				strength += lv.adjW[j]
			}
		}
		e.PutInt(u)
		e.PutF64(strength)
		e.PutF64(selfW)
	}
	prevKind := lv.c.SetKind(mpi.KindSetup)
	parts := lv.c.AllgatherBytes(e.Bytes())
	lv.c.SetKind(prevKind)
	// Stash (strength, selfW) in the flow arrays during decode, then
	// normalize in place once totalStrength (= 2W of the merged graph,
	// = 2W of the original) is known. Dead ids stay exactly zero.
	lv.visit = reuse(&mem.visit, idSpace)
	lv.exitP = reuse(&mem.exitP, idSpace)
	totalStrength := 0.0
	d := &lv.dec
	for _, b := range parts {
		d.Reset(b)
		for d.Remaining() > 0 {
			u := d.Int()
			s := d.F64()
			sw := d.F64()
			lv.visit[u] = s
			lv.exitP[u] = sw
			totalStrength += s
		}
	}
	if totalStrength > 0 {
		lv.inv2W = 1 / totalStrength
	}
	for u := 0; u < idSpace; u++ {
		strength, selfW := lv.visit[u], lv.exitP[u]
		lv.visit[u] = strength * lv.inv2W
		lv.exitP[u] = (strength - 2*selfW) * lv.inv2W
	}

	lv.initLocalState()
	return lv
}
