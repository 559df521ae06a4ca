package core

import (
	"slices"

	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// mergeShuffle performs the distributed graph merging of Section 3.5:
// each rank contracts its local arcs by the converged assignment and
// ships each contracted arc to the home rank of its (new) evaluation
// vertex, i.e. a plain 1D partitioning of the merged graph (Algorithm 2,
// line 8). The returned arcs are this rank's portion of the merged
// level: the full adjacency of every community id it owns.
//
// The whole contraction + shuffle is journaled and costed as its own
// merge-shuffle span, tagged with the level being contracted (stage 1
// for the first merge, stage 2 / outer k for deeper ones).
func (lv *level) mergeShuffle() []mergedArc {
	sp := lv.span(obs.PhaseMergeShuffle, -1)
	prevKind := lv.c.SetKind(mpi.KindMergeShuffle)
	defer lv.c.SetKind(prevKind)

	sb := lv.sendBufs
	sb.Reset()
	ops := lv.contract(sb)

	recv := lv.c.Alltoallv(sb.Bufs())
	size := 0
	for _, b := range recv {
		size += len(b) / mergedArcBytes
	}
	arcs := reuse(&lv.mem.merged, size)[:0]
	d := &lv.dec
	for _, b := range recv {
		d.Reset(b)
		for d.Remaining() > 0 {
			arcs = append(arcs, mergedArc{U: int32(d.Int()), V: int32(d.Int()), W: d.F64()})
		}
	}

	lv.end(sp, ops, 0, 0)
	return arcs
}

// mergedArcBytes is the wire size of one contracted arc.
const mergedArcBytes = 3 * 8

// contract encodes this rank's contracted arcs into sb, one payload per
// community owner, and returns the number of (cu, cv) pairs encoded.
//
// The eval vertices are bucketed by community with a stable counting
// sort, and the communities are walked in ascending order. A community's
// row sums its members' arcs, in CSR order, per target community, and
// is emitted ascending by target. Every pair (cu, cv) is thus summed in
// the order the adjacency lists its arcs and emitted ascending by
// (cu, cv): the float order and byte layout the golden results were
// produced with. The scratch is vertex- and id-sized; nothing is
// allocated per arc.
//
// Isolated owned vertices have no arcs but must survive as vertices of
// the merged graph, so after the arcs a zero-weight self marker goes to
// the owner of every community of an owned vertex that shipped no
// self-arc, ascending by community.
func (lv *level) contract(sb *mpi.SendBuffers) int64 {
	mem := lv.mem
	members, end := mem.buckets(lv.idSpace, len(lv.evalVerts), func(i int) int { return lv.comm[lv.evalVerts[i]] })
	row := mem.row(lv.idSpace)
	selfSeen := reuse(&mem.marks, lv.idSpace)
	ops := int64(0)
	lo := 0
	for cu := 0; cu < lv.idSpace; cu++ {
		hi := end[cu]
		for _, i := range members[lo:hi] {
			for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
				row.add(int32(lv.comm[int(lv.adjV[j])]), lv.adjW[j])
			}
		}
		lo = hi
		if row.empty() {
			continue
		}
		e := sb.For(ownerOf(cu, lv.p))
		for _, cv := range row.sorted() {
			if int(cv) == cu {
				selfSeen[cu] = true
			}
			e.PutInt(cu)
			e.PutInt(int(cv))
			e.PutF64(row.take(cv))
			ops++
		}
	}
	marked := reuse(&mem.live, lv.idSpace)
	for _, u := range lv.ownedActive {
		marked[lv.comm[u]] = true
	}
	for cu := 0; cu < lv.idSpace; cu++ {
		if !marked[cu] || selfSeen[cu] {
			continue
		}
		e := sb.For(ownerOf(cu, lv.p))
		e.PutInt(cu)
		e.PutInt(cu)
		e.PutF64(0)
	}
	return ops
}

// buckets stably sorts the indices [0, n) by key(i) in [0, idSpace)
// with a counting sort in the rank's scratch: bucket k is
// order[end[k-1]:end[k]] (from 0 for k = 0), indices ascending.
func (m *rankMem) buckets(idSpace, n int, key func(i int) int) (order []int32, end []int) {
	end = reuse(&m.cnt, idSpace+1)
	for i := range n {
		end[key(i)+1]++
	}
	for k := 1; k <= idSpace; k++ {
		end[k] += end[k-1]
	}
	order = reuse(&m.byRow, n)
	for i := range n {
		k := key(i)
		order[end[k]] = int32(i)
		end[k]++
	}
	return order, end
}

// rowSum accumulates one row of a contraction: weights summed per
// target id in the order they are added, read back ascending by id.
// Taking every id of a row leaves its id-sized scratch zeroed.
type rowSum struct {
	w   []float64 // by id: the row's sum so far, zero outside the row
	in  []bool    // by id: id is in the row (a sum may be exactly zero)
	ids []int32   // the row's ids
}

// row readies the rank's row accumulator for ids in [0, idSpace). Its
// sums live in wTo, the sweep's scratch: no sweep runs while a level is
// contracted or built.
func (m *rankMem) row(idSpace int) *rowSum {
	m.rs.w = reuse(&m.wTo, idSpace)
	m.rs.in = reuse(&m.rs.in, idSpace)
	m.rs.ids = m.rs.ids[:0]
	return &m.rs
}

func (r *rowSum) add(v int32, w float64) {
	if !r.in[v] {
		r.in[v] = true
		r.ids = append(r.ids, v)
	}
	r.w[v] += w
}

func (r *rowSum) empty() bool { return len(r.ids) == 0 }

// sorted returns the row's ids ascending and starts the next row; the
// ids and their sums stay readable, through take, until the next add.
func (r *rowSum) sorted() []int32 {
	ids := r.ids
	slices.Sort(ids)
	for _, v := range ids {
		r.in[v] = false
	}
	r.ids = ids[:0]
	return ids
}

// take returns v's sum and zeroes it.
func (r *rowSum) take(v int32) float64 {
	w := r.w[v]
	r.w[v] = 0
	return w
}

// gatherAssignments allgathers (vertex, community) for this rank's
// owned live vertices, so every rank can project the level's result
// onto deeper state. The merged levels this runs on are small, which is
// why the paper switches to plain 1D partitioning after the first merge.
// The result is dense over the id space with -1 for dead ids; out is
// reused when its capacity suffices.
func (lv *level) gatherAssignments(out []int) []int {
	prevKind := lv.c.SetKind(mpi.KindAssignment)
	defer lv.c.SetKind(prevKind)
	e := lv.enc
	e.Reset()
	for _, u := range lv.ownedActive {
		e.PutInt(u)
		e.PutInt(lv.comm[u])
	}
	parts := lv.c.AllgatherBytes(e.Bytes())
	if cap(out) < lv.idSpace {
		out = make([]int, lv.idSpace)
	}
	out = out[:lv.idSpace]
	for i := range out {
		out[i] = -1
	}
	d := &lv.dec
	for _, b := range parts {
		d.Reset(b)
		for d.Remaining() > 0 {
			u := d.Int()
			out[u] = d.Int()
		}
	}
	return out
}
