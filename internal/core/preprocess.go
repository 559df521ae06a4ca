package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/partition"
)

// stage1Input is one rank's preprocessing product (Algorithm 2, line
// 1): the global quantities every rank derives identically, and this
// rank's share of the delegate layout.
type stage1Input struct {
	n, numEdges int
	// isHub marks the delegated vertices (identical on every rank).
	isHub []bool
	// flow holds the dense flow arrays, equal to mapeq.NewVertexFlow of
	// the whole graph bit for bit.
	flow mapeq.VertexFlow
	// adj is this rank's list, Delegate(g).RankArcs[rank], grouped by
	// evaluation vertex in list order.
	adj adjacency
	// part is the layout's balance summary (identical on every rank).
	part partition.BalanceStats
}

// Wire sizes of the preprocessing records: ids travel as 32 bits.
const (
	arcBytes        = 4 + 4 + 8         // u, v, w
	vertexSumsBytes = 4 + 4 + 8 + 8 + 8 // degree, upper arcs, strength, self, upper weight
)

// preprocess turns the rows this rank owns into its stage-1 input. No
// rank holds the graph: every global quantity comes from collectives
// over per-vertex sums, and each step of the placement rule is the
// per-rank form of partition.Delegate:
//
//  1. an allgather of every owned vertex's graph.VertexSums gives the
//     edge count, the total weight W (summed in vertex id order, as
//     graph.Build does), d_high, the hub set and the flow arrays;
//  2. an allgather of each hub row's hub-neighbour count gives each
//     hub row its round-robin cursor (skipped without hubs);
//  3. an allgather of per-destination arc counts sizes every list once;
//     Alltoallv rounds over blocks of vertex ids ship every arc to the
//     rank PlaceRow picks, and a receiver merges the per-source streams
//     by evaluation vertex — the order Delegate appends in;
//  4. an allgather of (list length, hub-sourced arcs) gives every rank
//     the rebalance plan, and one Alltoallv moves the planned arcs
//     (skipped when the plan is empty or rebalancing is off);
//  5. an allgather of (list length, ghost count) gives the balance
//     summary.
//
// Every rank enters the same collectives, so an in-process run cutting
// its rows from a graph and rank processes reading a file run the same
// protocol. sb is the rank's pooled send set.
func preprocess(c *mpi.Comm, cfg *Config, rows *graph.Rows, sb *mpi.SendBuffers) *stage1Input {
	p, rank, n := c.Size(), c.Rank(), rows.N
	prevKind := c.SetKind(mpi.KindSetup)
	defer c.SetKind(prevKind)
	in := &stage1Input{n: n}
	decs := make([]mpi.Decoder, p)

	// ---- 1. Global vertex sums ----
	e := mpi.NewEncoder(rows.NumRows() * vertexSumsBytes)
	for i := 0; i < rows.NumRows(); i++ {
		s := rows.Sums(i)
		e.PutU32(uint32(s.Degree))
		e.PutU32(uint32(s.Upper))
		e.PutF64(s.Strength)
		e.PutF64(s.Self)
		e.PutF64(s.UpperWeight)
	}
	parts := c.AllgatherBytes(e.Bytes())
	for r := range decs {
		decs[r].Reset(parts[r])
	}
	// Strength and self weight are stashed in the flow arrays and
	// normalized once W is known; W sums in id order.
	deg := make([]int32, n)
	f := &in.flow
	f.P = make([]float64, n)
	f.Exit = make([]float64, n)
	totalArcs := 0
	for u := 0; u < n; u++ {
		d := &decs[u%p]
		deg[u] = int32(d.U32())
		in.numEdges += int(d.U32())
		f.P[u] = d.F64()
		f.Exit[u] = d.F64()
		f.TotalWeight += d.F64()
		totalArcs += int(deg[u])
	}
	if f.TotalWeight > 0 {
		inv2W := 1 / (2 * f.TotalWeight)
		for u := 0; u < n; u++ {
			strength, selfW := f.P[u], f.Exit[u]
			f.P[u] = strength * inv2W
			f.Exit[u] = (strength - 2*selfW) * inv2W
			f.SumPlogpP += mapeq.PlogP(f.P[u])
		}
	}
	dHigh := cfg.DHigh
	if dHigh <= 0 {
		dHigh = defaultDHigh(cfg.P, n, in.numEdges)
	}
	dHigh = partition.HubThreshold(p, dHigh)
	in.isHub = make([]bool, n)
	numHubs := 0
	for u, d := range deg {
		if dHigh > 0 && int(d) > dHigh {
			in.isHub[u] = true
			numHubs++
		}
	}
	// Placement runs in rounds over blocks of consecutive vertex ids
	// holding about p·placeChunk bytes of arcs each, cut from the
	// global degrees so every rank agrees on them.
	var blocks []int // block k is ids [blocks[k], blocks[k+1])
	acc := 0
	for u, d := range deg {
		if u == 0 || acc >= p*placeChunk/arcBytes {
			blocks = append(blocks, u)
			acc = 0
		}
		acc += int(d)
	}
	blocks = append(blocks, n)
	deg = nil
	isHub := in.isHub

	// ---- 2. Hub-hub cursors ----
	// rrStart lists, for this rank's hub rows in order, the number of
	// hub-hub arcs of all hubs below it.
	var rrStart []int
	if numHubs > 0 {
		e.Reset()
		for i := 0; i < rows.NumRows(); i++ {
			if u := rows.Vertex(i); isHub[u] {
				t, _ := rows.Row(i)
				e.PutU32(uint32(partition.HubHubArcs(t, isHub)))
			}
		}
		parts := c.AllgatherBytes(e.Bytes())
		for r := range decs {
			decs[r].Reset(parts[r])
		}
		rr := 0
		for u, hub := range isHub {
			if hub {
				if u%p == rank {
					rrStart = append(rrStart, rr)
				}
				rr += int(decs[u%p].U32())
			}
		}
	}

	// ---- 3. Placement ----
	// A whole counting pass and an allgather of its counts give every
	// rank its list's length, so the list is allocated once, at
	// Delegate's capacity (rebalancing fills a list up to the mean).
	// Then rounds over the id blocks, so no payload is the rank's whole
	// list; each round places its rows twice, like Delegate, to size
	// every destination's buffer before encoding. Source s sends the
	// arcs of its rows ascending by evaluation vertex u ≡ s (mod p);
	// taking u = lo, lo+1, ... from stream u mod p merges them into
	// Delegate's order.
	sends := make([]int, p)
	count := func(r, _, _ int, _ float64) { sends[r]++ }
	put := func(r, u, v int, w float64) { putArc(sb.For(r), u, v, w) }
	place := func(from, to, hub int, put func(r, u, v int, w float64)) {
		for i := from; i < to; i++ {
			u := rows.Vertex(i)
			t, w := rows.Row(i)
			rr := 0
			if isHub[u] {
				rr = rrStart[hub]
				hub++
			}
			partition.PlaceRow(u, t, w, isHub, p, &rr, put)
		}
	}
	place(0, rows.NumRows(), 0, count)
	e.Reset()
	for _, k := range sends {
		e.PutInt(k)
	}
	listLen := 0
	for _, b := range c.AllgatherBytes(e.Bytes()) {
		listLen += int(binary.LittleEndian.Uint64(b[8*rank:]))
	}
	// Delegate's list arrives sorted by evaluation vertex, so placement
	// writes it grouped, as the stage-1 adjacency; the vertex bound is
	// every owned vertex and every hub.
	arcCap, vertCap := max(listLen, totalArcs/p+1), graph.OwnedCount(n, rank, p)+numHubs
	adj := adjacency{
		evalVerts: make([]int, 0, vertCap),
		evalOff:   append(make([]int, 0, vertCap+1), 0),
		adjV:      make([]int32, 0, arcCap),
		adjW:      make([]float64, 0, arcCap),
	}
	pos := make([]int, p)
	row, hub := 0, 0
	for k := 0; k+1 < len(blocks); k++ {
		lo, hi := blocks[k], blocks[k+1]
		end, hubEnd := row, hub
		for ; end < rows.NumRows() && rows.Vertex(end) < hi; end++ {
			if isHub[rows.Vertex(end)] {
				hubEnd++
			}
		}
		clear(sends)
		place(row, end, hub, count)
		sb.Reset()
		for r, k := range sends {
			if k > 0 {
				sb.For(r).Grow(k * arcBytes)
			}
		}
		place(row, end, hub, put)
		row, hub = end, hubEnd
		recv := c.Alltoallv(sb.Bufs())
		clear(pos)
		for u := lo; u < hi; u++ {
			s := u % p
			b := recv[s]
			for pos[s] < len(b) && int(binary.LittleEndian.Uint32(b[pos[s]:])) == u {
				a := getArc(b[pos[s]:])
				adj.adjV = append(adj.adjV, a.V)
				adj.adjW = append(adj.adjW, a.W)
				pos[s] += arcBytes
			}
			if len(adj.adjV) > adj.evalOff[len(adj.evalVerts)] {
				adj.evalVerts = append(adj.evalVerts, u)
				adj.evalOff = append(adj.evalOff, len(adj.adjV))
			}
		}
		for s, b := range recv {
			if pos[s] != len(b) {
				panicf("rank %d: %d undecoded placement bytes from rank %d", rank, len(b)-pos[s], s)
			}
		}
	}
	rows = nil

	// ---- 4. Rebalance ----
	if !cfg.NoRebalance && p > 1 {
		e.Reset()
		e.PutInt(len(adj.adjV))
		e.PutInt(adj.hubArcs(isHub))
		parts := c.AllgatherBytes(e.Bytes())
		lens, hubArcs := make([]int, p), make([]int, p)
		for r, b := range parts {
			decs[r].Reset(b)
			lens[r], hubArcs[r] = decs[r].Int(), decs[r].Int()
		}
		if plan := partition.RebalancePlan(lens, hubArcs); len(plan) > 0 {
			// A source hands out its last hub-sourced arcs, the first
			// move's count to its destination, then the next move's.
			sb.Reset()
			take := 0
			for _, m := range plan {
				if m.Src == rank {
					take += m.Count
					sb.For(m.Dst).Grow(m.Count * arcBytes)
				}
			}
			mi, sent := 0, 0
			adj.takeHubArcs(isHub, take, func(u int, v int32, w float64) {
				for plan[mi].Src != rank || sent == plan[mi].Count {
					mi, sent = mi+1, 0
				}
				putArc(sb.For(plan[mi].Dst), u, int(v), w)
				sent++
			})
			recv := c.Alltoallv(sb.Bufs())
			clear(pos)
			var got []partition.Arc
			for _, m := range plan {
				if m.Dst != rank {
					continue
				}
				b := recv[m.Src]
				for j := 0; j < m.Count; j++ {
					got = append(got, getArc(b[pos[m.Src]:]))
					pos[m.Src] += arcBytes
				}
			}
			adj.addHubArcs(got)
		}
	}
	in.adj = adj

	// ---- 5. Balance summary ----
	// Placement's exchanges were the largest of the run: their buffers,
	// the views into them and the vertex-sums encoder go before the last
	// collective, which every rank thus enters with only its stage-1
	// input live (see phaseGC).
	c.ReleaseBuffers()
	clear(decs)
	ghosts := adj.ghostCount(isHub, p, rank, make([]bool, n))
	e = mpi.NewEncoder(16)
	e.PutInt(len(adj.adjV))
	e.PutInt(ghosts)
	parts = c.AllgatherBytes(e.Bytes())
	edgeCounts, ghostCounts := make([]int, p), make([]int, p)
	for r, b := range parts {
		decs[r].Reset(b)
		edgeCounts[r], ghostCounts[r] = decs[r].Int(), decs[r].Int()
	}
	in.part = partition.BalanceOf(edgeCounts, ghostCounts, numHubs)
	return in
}

// defaultDHigh is the scaled default d_high of a p-rank run on a graph
// of n vertices and m edges: the paper uses d_high = p, which on Titan
// (p in the thousands) delegates only the extreme tail. At this
// reproduction's processor counts (2-64) a literal d_high = p would
// delegate most vertices — delegates get only one coordinated move per
// synchronized round, so quality and convergence collapse. The default
// therefore keeps delegates in the tail: at least p, and at least
// several times the average degree (see DESIGN.md). At p = 1 the
// threshold is ignored: partition.HubThreshold delegates nothing on one
// rank, so hubs move in every local pass like any owned vertex.
func defaultDHigh(p, n, m int) int {
	avgDeg := 2 * m / maxInt(1, n)
	return maxInt(p, 4*avgDeg)
}

func putArc(e *mpi.Encoder, u, v int, w float64) {
	e.PutU32(uint32(u))
	e.PutU32(uint32(v))
	e.PutF64(w)
}

func getArc(b []byte) partition.Arc {
	return partition.Arc{
		U: int32(binary.LittleEndian.Uint32(b)),
		V: int32(binary.LittleEndian.Uint32(b[4:])),
		W: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

// hubArcs counts the hub-sourced arcs: partition.CountHubArcs.
func (a *adjacency) hubArcs(isHub []bool) int {
	k := 0
	for i, u := range a.evalVerts {
		if isHub[u] {
			k += a.evalOff[i+1] - a.evalOff[i]
		}
	}
	return k
}

// ghostCount is Layout.GhostCounts for this rank of a delegate layout
// (round-robin ownership over p ranks): the vertices its arcs name that
// it neither owns nor shares as hubs. seen is a cleared scratch array
// indexed by vertex.
func (a *adjacency) ghostCount(isHub []bool, p, r int, seen []bool) int {
	count := 0
	mark := func(x int) {
		if !seen[x] && !isHub[x] && x%p != r {
			seen[x] = true
			count++
		}
	}
	for i, u := range a.evalVerts {
		mark(u)
		for _, v := range a.adjV[a.evalOff[i]:a.evalOff[i+1]] {
			mark(int(v))
		}
	}
	return count
}

// takeHubArcs is partition.TakeHubArcs on the list the adjacency
// groups, followed by the stable regrouping by evaluation vertex that
// a rebalanced list gets: the last k hub-sourced arcs go to put in
// removal order, and the list's tail fills their places. k must not
// exceed hubArcs.
//
// TakeHubArcs fills each hole with the list's current last arc: an arc
// of the tail [n-k, n) that it has already passed over, so not
// hub-sourced, and possibly one an earlier hole received. Every hole
// below n-k keeps its fill; each fill then rejoins its evaluation
// vertex's group ahead of the group's unmoved arcs, since every hole
// lies before the groups of the tail.
func (a *adjacency) takeHubArcs(isHub []bool, k int, put func(u int, v int32, w float64)) {
	n := len(a.adjV)
	holes := make([]int, 0, k) // descending
	for g := len(a.evalVerts) - 1; g >= 0 && len(holes) < k; g-- {
		if u := a.evalVerts[g]; isHub[u] {
			for j := a.evalOff[g+1] - 1; j >= a.evalOff[g] && len(holes) < k; j-- {
				holes = append(holes, j)
				put(u, a.adjV[j], a.adjW[j])
			}
		}
	}
	// Replay the fills: the j-th removal moves the arc at n-1-j, itself
	// the fill of an earlier hole at that position if there is one.
	cut := n - len(holes)
	type fill struct {
		g, hole int
		v       int32
		w       float64
	}
	var fills []fill
	from := make([]int, len(holes))
	prev := 0
	for j, h := range holes {
		last := n - 1 - j
		for prev < j && holes[prev] > last {
			prev++
		}
		from[j] = last
		if prev < j && holes[prev] == last {
			from[j] = from[prev]
		}
		if h < cut {
			g := sort.SearchInts(a.evalOff, from[j]+1) - 1
			fills = append(fills, fill{g: g, hole: h, v: a.adjV[from[j]], w: a.adjW[from[j]]})
		}
	}
	slices.SortFunc(fills, func(x, y fill) int {
		return cmp.Or(cmp.Compare(x.g, y.g), cmp.Compare(x.hole, y.hole))
	})
	// Regroup in place, front to back: no arc moves right, and fills
	// land only where every arc has been read.
	verts, off := a.evalVerts[:0], a.evalOff[:1]
	next, w, h, f := 0, 0, len(holes)-1, 0
	for g, u := range a.evalVerts {
		lo, hi := next, a.evalOff[g+1]
		next = hi
		start := w
		for ; f < len(fills) && fills[f].g == g; f++ {
			a.adjV[w], a.adjW[w] = fills[f].v, fills[f].w
			w++
		}
		for j := lo; j < min(hi, cut); j++ {
			if h >= 0 && holes[h] == j {
				h--
				continue
			}
			a.adjV[w], a.adjW[w] = a.adjV[j], a.adjW[j]
			w++
		}
		if w > start {
			verts = append(verts, u)
			off = append(off, w)
		}
	}
	if w != cut {
		panicf("rebalance regrouped %d arcs, want %d", w, cut)
	}
	a.evalVerts, a.evalOff, a.adjV, a.adjW = verts, off, a.adjV[:w], a.adjW[:w]
}

// addHubArcs appends received hub-sourced arcs, in arrival order, to a
// list the adjacency groups and regroups it stably: each arc joins its
// evaluation vertex's group after the arcs already there, and a vertex
// without a group gets one. It merges from the back, in place.
func (a *adjacency) addHubArcs(got []partition.Arc) {
	slices.SortStableFunc(got, func(x, y partition.Arc) int { return cmp.Compare(x.U, y.U) })
	groups := len(a.evalVerts)
	for j, x := range got {
		if j == 0 || x.U != got[j-1].U {
			if _, ok := slices.BinarySearch(a.evalVerts, int(x.U)); !ok {
				groups++
			}
		}
	}
	n, g := len(a.adjV), len(a.evalVerts)-1
	a.adjV = slices.Grow(a.adjV, len(got))[:n+len(got)]
	a.adjW = slices.Grow(a.adjW, len(got))[:n+len(got)]
	a.evalVerts = slices.Grow(a.evalVerts, groups-g-1)[:groups]
	a.evalOff = slices.Grow(a.evalOff, groups-g-1)[:groups+1]
	w, end, j := len(a.adjV), n, len(got)-1
	a.evalOff[groups] = w
	for k := groups - 1; k >= 0; k-- {
		u := -1
		if g >= 0 {
			u = a.evalVerts[g]
		}
		if j >= 0 {
			u = max(u, int(got[j].U))
		}
		for ; j >= 0 && int(got[j].U) == u; j-- {
			w--
			a.adjV[w], a.adjW[w] = got[j].V, got[j].W
		}
		if g >= 0 && a.evalVerts[g] == u {
			lo := a.evalOff[g]
			w -= end - lo
			copy(a.adjV[w:], a.adjV[lo:end])
			copy(a.adjW[w:], a.adjW[lo:end])
			end = lo
			g--
		}
		a.evalVerts[k], a.evalOff[k] = u, w
	}
}

// ingestChunk bounds the input bytes a rank parses per routing round,
// and placeChunk the arc bytes a rank receives per placement round on
// average, so the exchanges' payloads, and the pooled buffers they
// leave behind, stay small beside the graph (an input byte yields about
// 2.7 bytes of arcs).
const (
	ingestChunk = 512 << 10
	placeChunk  = 1 << 20
)

// ingestFile is rank-local ingest (Section 3.3: each processor
// preprocesses only its part of the graph). The rank parses the lines
// of its byte range of the edge list at path (graph.LineRange) and
// routes each edge's arcs (u, v, w) and (v, u, w) to their owners
// u mod p and v mod p, in rounds of at most ingestChunk input bytes;
// an allreduce first agrees on the round count. A receiver keeps each
// source's arcs in arrival order and concatenates the sources in rank
// order, which is file order, so every owned vertex gets exactly the
// arc sequence graph.Builder would have placed for it, and
// graph.NewRows sorts and merges it into the whole graph's row.
//
// A closing allgather of headers (largest id, largest "vertices="
// value, line count, first error) gives every rank the vertex count
// and global line numbers: a bad line, or a rank that cannot read the
// file, fails every rank with the same error. sb is the rank's pooled
// send set.
func ingestFile(c *mpi.Comm, path string, sb *mpi.SendBuffers) (*graph.Rows, *obs.IngestReport, error) {
	start := time.Now()
	p, rank := c.Size(), c.Rank()
	prevKind := c.SetKind(mpi.KindSetup)
	defer c.SetKind(prevKind)
	rep := &obs.IngestReport{}

	part, closeFile, err := openPart(path, rank, p)
	defer closeFile()
	rounds := int64(1)
	if err == nil {
		rounds = max(1, (part.Size()+ingestChunk-1)/ingestChunk)
	}
	rounds = c.AllreduceI64(rounds, mpi.OpMax)

	route := func(u, v int, w float64) {
		putArc(sb.For(u%p), u, v, w)
		if u%p == rank {
			rep.ArcsKept++
		} else {
			rep.ArcsSent++
		}
		if u != v {
			putArc(sb.For(v%p), v, u, w)
			if v%p == rank {
				rep.ArcsKept++
			} else {
				rep.ArcsSent++
			}
		}
	}
	info := graph.EdgeListInfo{MaxID: -1}
	stores := make([]arcStore, p)
	for k := int64(0); k < rounds; k++ {
		sb.Reset()
		if err == nil {
			// An input byte yields about 2.7 bytes of arcs.
			chunk := int(min(ingestChunk, part.Size()))
			for r := 0; r < p; r++ {
				sb.For(r).Grow(3 * chunk / p)
			}
			err = parseChunk(part, k, rounds, &info, route)
		}
		recv := c.Alltoallv(sb.Bufs())
		for s, b := range recv {
			stores[s].add(b)
		}
	}
	rep.BytesRead = info.Bytes

	// Row arrays: count each owned vertex's arcs, then fill in source
	// order. They cover the owned vertices up to the largest that has
	// an arc; the stores die here, before the headers' collective (see
	// phaseGC).
	k := 0
	for _, st := range stores {
		for _, blk := range st.blocks {
			for _, a := range blk {
				k = max(k, int(a.U)/p+1)
			}
		}
	}
	off := make([]int, k+1)
	for _, st := range stores {
		for _, blk := range st.blocks {
			for _, a := range blk {
				off[int(a.U)/p+1]++
			}
		}
	}
	for i := 0; i < k; i++ {
		off[i+1] += off[i]
	}
	targets := make([]int32, off[k])
	weights := make([]float64, off[k])
	cursor := make([]int, k)
	copy(cursor, off)
	for s := range stores {
		for _, blk := range stores[s].blocks {
			for _, a := range blk {
				j := cursor[int(a.U)/p]
				targets[j], weights[j] = a.V, a.W
				cursor[int(a.U)/p]++
			}
		}
		stores[s] = arcStore{}
	}

	// Headers: the vertex count, and the first error in file order.
	n, err := exchangeHeaders(c, info, err)
	if err != nil {
		rep.ArcsSent, rep.ArcsKept = 0, 0
		return nil, rep, err
	}
	// Owned vertices above the largest with an arc have empty rows.
	for range graph.OwnedCount(n, rank, p) - k {
		off = append(off, off[k])
	}
	rows := graph.NewRows(n, rank, p, off, targets, weights)
	rep.WallNs = time.Since(start).Nanoseconds()
	return rows, rep, nil
}

// openPart opens the edge list at path and returns this rank's part of
// it: the lines starting in its 1/p of the bytes.
func openPart(path string, rank, p int) (*io.SectionReader, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, func() {}, err
	}
	//dinfomap:close-ok read-only file; close errors cannot lose data
	closeFile := func() { f.Close() }
	st, err := f.Stat()
	if err == nil && st.IsDir() {
		err = fmt.Errorf("%s is a directory, not an edge-list file", path)
	}
	if err != nil {
		return nil, closeFile, err
	}
	off, n, err := graph.LineRange(f, st.Size(), rank, p)
	if err != nil {
		return nil, closeFile, err
	}
	return io.NewSectionReader(f, off, n), closeFile, nil
}

// parseChunk parses chunk k of rounds of the part into fn and adds its
// summary to info; a line error is renumbered from the part's start.
func parseChunk(part *io.SectionReader, k, rounds int64, info *graph.EdgeListInfo, fn func(u, v int, w float64)) error {
	off, n, err := graph.LineRange(part, part.Size(), int(k), int(rounds))
	if err != nil {
		return err
	}
	ci, err := graph.ParseEdgeList(io.NewSectionReader(part, off, n), fn)
	if le := (*graph.LineError)(nil); errors.As(err, &le) {
		le.Line += info.Lines
	}
	info.Lines += ci.Lines
	info.MaxID = max(info.MaxID, ci.MaxID)
	info.Declared = max(info.Declared, ci.Declared)
	info.Bytes += ci.Bytes
	return err
}

// exchangeHeaders allgathers every rank's ingest header — its largest
// id, largest "vertices=" value, line count, and first error (line,
// message) — and returns the vertex count, or the first error in file
// order renumbered to a file line, identically on every rank.
func exchangeHeaders(c *mpi.Comm, info graph.EdgeListInfo, err error) (int, error) {
	errLine, msg := 0, ""
	if err != nil {
		msg = err.Error()
		if le := (*graph.LineError)(nil); errors.As(err, &le) {
			errLine, msg = le.Line, le.Msg
		}
	}
	e := mpi.NewEncoder(5*8 + len(msg))
	e.PutInt(info.MaxID)
	e.PutInt(info.Declared)
	e.PutInt(info.Lines)
	e.PutInt(errLine)
	e.PutInt(len(msg))
	e.Append([]byte(msg))
	n, lines := 0, 0
	err = nil
	var d mpi.Decoder
	for _, b := range c.AllgatherBytes(e.Bytes()) {
		d.Reset(b)
		maxID, declared, rankLines, line, msgLen := d.Int(), d.Int(), d.Int(), d.Int(), d.Int()
		if err == nil && msgLen > 0 {
			text := string(b[5*8 : 5*8+msgLen])
			if line > 0 {
				err = &graph.LineError{Line: lines + line, Msg: text}
			} else {
				err = errors.New(text)
			}
		}
		lines += rankLines
		n = max(n, maxID+1, declared)
	}
	return n, err
}

// arcStore keeps the arcs one source routed to this rank, in arrival
// order, in blocks of at most storeBlock arcs so that growing it never
// copies.
type arcStore struct{ blocks [][]partition.Arc }

const storeBlock = 1 << 16

// add appends the arcs of one routing payload.
func (st *arcStore) add(b []byte) {
	for i := 0; i < len(b); i += arcBytes {
		last := len(st.blocks) - 1
		if last < 0 || len(st.blocks[last]) == cap(st.blocks[last]) {
			st.blocks = append(st.blocks, make([]partition.Arc, 0, min(storeBlock, (len(b)-i)/arcBytes)))
			last++
		}
		st.blocks[last] = append(st.blocks[last], partition.Arc{
			U: int32(binary.LittleEndian.Uint32(b[i:])),
			V: int32(binary.LittleEndian.Uint32(b[i+4:])),
			W: math.Float64frombits(binary.LittleEndian.Uint64(b[i+8:])),
		})
	}
}
