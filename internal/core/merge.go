package core

import (
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

	// Contract local arcs and pre-accumulate per (cu, cv) pair to keep
	// the shuffle payload small. The adjacency is walked in CSR order,
	// each arc j mapping to the contracted pair (aU[j], aV[j]) with
	// weight lv.adj[j].W; a stable two-pass counting sort (by cv, then
	// cu) then makes equal pairs adjacent with ties in walk order, so
	// the run-merge below sums parallel-arc weights in exactly the walk
	// order — the float order the golden results were produced with —
	// and emits runs ascending by (cu, cv), byte-identical to the old
	// sorted-key encode with no map and no comparison sort.
	m := len(lv.adj)
	mem := lv.mem
	aU := reuse(&mem.aU, m)
	aV := reuse(&mem.aV, m)
	k := 0
	for i, u := range lv.evalVerts {
		cu := int32(lv.comm[u])
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			aU[k] = cu
			aV[k] = int32(lv.comm[int(lv.adj[j].V)])
			k++
		}
	}
	cnt := reuse(&mem.cnt, lv.idSpace)
	for _, v := range aV {
		cnt[v]++
	}
	sum := 0
	for v := 0; v < lv.idSpace; v++ {
		n := cnt[v]
		cnt[v] = sum
		sum += n
	}
	ordV := reuse(&mem.ordV, m)
	for idx, v := range aV {
		ordV[cnt[v]] = int32(idx)
		cnt[v]++
	}
	cnt2 := reuse(&mem.cnt2, lv.idSpace)
	for _, u := range aU {
		cnt2[u]++
	}
	sum = 0
	for u := 0; u < lv.idSpace; u++ {
		n := cnt2[u]
		cnt2[u] = sum
		sum += n
	}
	ord := reuse(&mem.ord, m)
	for _, idx := range ordV {
		u := aU[idx]
		ord[cnt2[u]] = idx
		cnt2[u]++
	}

	sb := lv.sendBufs
	sb.Reset()
	selfSeen := reuse(&mem.marks, lv.idSpace)
	ops := int64(0)
	for s := 0; s < m; {
		idx := ord[s]
		u, v := aU[idx], aV[idx]
		w := lv.adj[idx].W
		t := s + 1
		for ; t < m; t++ {
			j := ord[t]
			if aU[j] != u || aV[j] != v {
				break
			}
			w += lv.adj[j].W
		}
		s = t
		ops++
		if u == v {
			selfSeen[u] = true
		}
		e := sb.For(ownerOf(int(u), lv.p))
		e.PutInt(int(u))
		e.PutInt(int(v))
		e.PutF64(w)
	}
	// Isolated owned vertices have no arcs but must survive as vertices
	// of the merged graph; ship a zero-weight marker to their community
	// owner so the community remains live. The ascending scan processes
	// marker communities in sorted order for the same reproducibility
	// reason.
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

	recv := lv.c.Alltoallv(sb.Bufs())
	size := 0
	for _, b := range recv {
		size += len(b) / mergedArcBytes
	}
	arcs := reuse(&mem.merged, size)[:0]
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
