package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
)

// countingSortContract is the contraction mergeShuffle ran before the
// row-by-row one, kept as the oracle of its byte identity: every arc is
// mapped to its contracted pair (aU, aV), a stable two-pass counting
// sort (by cv, then cu) makes equal pairs adjacent with ties in walk
// order, the runs are summed in that order and emitted ascending by
// (cu, cv), and zero-weight self markers follow for the communities of
// owned vertices that shipped no self-arc. It returns one payload per
// destination rank and the number of pairs.
func countingSortContract(lv *level) ([][]byte, int64) {
	var aU, aV []int32
	var w []float64
	for i, u := range lv.evalVerts {
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			aU = append(aU, int32(lv.comm[u]))
			aV = append(aV, int32(lv.comm[int(lv.adjV[j])]))
			w = append(w, lv.adjW[j])
		}
	}
	m := len(aU)
	cnt := make([]int, lv.idSpace)
	for _, v := range aV {
		cnt[v]++
	}
	sum := 0
	for v := range cnt {
		n := cnt[v]
		cnt[v] = sum
		sum += n
	}
	ordV := make([]int32, m)
	for idx, v := range aV {
		ordV[cnt[v]] = int32(idx)
		cnt[v]++
	}
	cnt2 := make([]int, lv.idSpace)
	for _, u := range aU {
		cnt2[u]++
	}
	sum = 0
	for u := range cnt2 {
		n := cnt2[u]
		cnt2[u] = sum
		sum += n
	}
	ord := make([]int32, m)
	for _, idx := range ordV {
		u := aU[idx]
		ord[cnt2[u]] = idx
		cnt2[u]++
	}

	sb := mpi.NewSendBuffers(lv.p)
	sb.Reset()
	selfSeen := make([]bool, lv.idSpace)
	ops := int64(0)
	for s := 0; s < m; {
		idx := ord[s]
		u, v := aU[idx], aV[idx]
		sw := w[idx]
		t := s + 1
		for ; t < m; t++ {
			j := ord[t]
			if aU[j] != u || aV[j] != v {
				break
			}
			sw += w[j]
		}
		s = t
		ops++
		if u == v {
			selfSeen[u] = true
		}
		e := sb.For(ownerOf(int(u), lv.p))
		e.PutInt(int(u))
		e.PutInt(int(v))
		e.PutF64(sw)
	}
	marked := make([]bool, lv.idSpace)
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
	out := make([][]byte, lv.p)
	for dst, b := range sb.Bufs() {
		out[dst] = bytes.Clone(b)
	}
	return out, ops
}

// countingSortCSR is newMergedLevel's former CSR build, the oracle of
// the row-by-row one: received arcs sorted by (u, v) with a stable
// two-pass counting sort, equal pairs summed in arrival order.
func countingSortCSR(arcs []mergedArc, idSpace int) (verts, off []int, adjV []int32, adjW []float64) {
	m := len(arcs)
	cnt := make([]int, idSpace)
	for _, a := range arcs {
		cnt[a.V]++
	}
	sum := 0
	for v := range cnt {
		k := cnt[v]
		cnt[v] = sum
		sum += k
	}
	ordV := make([]int32, m)
	for idx, a := range arcs {
		ordV[cnt[a.V]] = int32(idx)
		cnt[a.V]++
	}
	cnt2 := make([]int, idSpace)
	for _, a := range arcs {
		cnt2[a.U]++
	}
	sum = 0
	for u := range cnt2 {
		k := cnt2[u]
		cnt2[u] = sum
		sum += k
	}
	ord := make([]int32, m)
	for _, idx := range ordV {
		u := arcs[idx].U
		ord[cnt2[u]] = idx
		cnt2[u]++
	}
	off = []int{0}
	for s := 0; s < m; {
		a := arcs[ord[s]]
		w := a.W
		t := s + 1
		for ; t < m; t++ {
			b := arcs[ord[t]]
			if b.U != a.U || b.V != a.V {
				break
			}
			w += b.W
		}
		s = t
		if u := int(a.U); len(verts) == 0 || verts[len(verts)-1] != u {
			verts = append(verts, u)
			off = append(off, off[len(off)-1])
		}
		off[len(off)-1]++
		adjV = append(adjV, a.V)
		adjW = append(adjW, w)
	}
	return verts, off, adjV, adjW
}

// weightedWithIsolated is a planted graph with non-integer weights (so
// summation order shows in the bits), a few self-loops, and isolated
// vertices spread through the id space.
func weightedWithIsolated() *graph.Graph {
	g, _ := gen.PlantedPartition(11, gen.PlantedConfig{
		N: 700, NumComms: 14, AvgDegree: 9, Mixing: 0.3, SizeSkew: 0.5,
	})
	const isolated = 40
	n := g.NumVertices() + isolated
	id := func(u int) int { return u + u/(g.NumVertices()/isolated+1) + 1 } // skips leave gaps
	b := graph.NewBuilder(n)
	r := gen.NewRNG(5)
	g.Edges(func(u, v int, w float64) {
		b.AddWeightedEdge(id(u), id(v), w*(0.1+r.Float64()))
	})
	for u := 0; u < g.NumVertices(); u += 53 {
		b.AddWeightedEdge(id(u), id(u), 0.7+r.Float64())
	}
	b.EnsureVertices(n)
	return b.Build()
}

// TestContractMatchesCountingSort compares the contraction's payloads,
// byte for byte, with the counting-sort oracle's, and the merged level's
// CSR with its oracle's: on the converged stage-1 level, on the merged
// level built from its shuffle (whose
// isolated vertices arrive as zero-weight self-arcs) once converged,
// and on that level again under a random coarse assignment, which makes
// long rows of parallel arcs. p = 1..4 covers delegated hubs and every
// ownership stride.
func TestContractMatchesCountingSort(t *testing.T) {
	g := weightedWithIsolated()
	for p := 1; p <= 4; p++ {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := Config{P: p, Seed: 7}.withDefaults()
			var mu sync.Mutex
			mpi.Run(p, func(c *mpi.Comm) {
				check := func(what string, lv *level) {
					want, wantOps := countingSortContract(lv)
					sb := mpi.NewSendBuffers(p)
					sb.Reset()
					gotOps := lv.contract(sb)
					got := sb.Bufs()
					mu.Lock()
					defer mu.Unlock()
					if gotOps != wantOps {
						t.Errorf("rank %d %s: %d pairs, oracle %d", c.Rank(), what, gotOps, wantOps)
					}
					for dst := range want {
						if !bytes.Equal(got[dst], want[dst]) {
							t.Errorf("rank %d %s: payload to rank %d differs from the oracle (%d vs %d bytes)",
								c.Rank(), what, dst, len(got[dst]), len(want[dst]))
						}
					}
				}
				lv := stage1LevelOf(c, &cfg, g)
				lv.cluster()
				check("stage 1", lv)
				arcs := lv.mergeShuffle()
				verts, off, adjV, adjW := countingSortCSR(arcs, lv.idSpace)
				merged := newMergedLevel(c, &cfg, lv.idSpace, arcs, lv.vertexTerm, cfg.Seed, 1, lv.mem)
				if !slices.Equal(merged.evalVerts, verts) || !slices.Equal(merged.evalOff, off) ||
					!slices.Equal(merged.adjV, adjV) || !slices.Equal(merged.adjW, adjW) {
					mu.Lock()
					t.Errorf("rank %d: merged level's CSR differs from the counting-sort oracle's", c.Rank())
					mu.Unlock()
				}
				zeroSelf := 0
				for i, u := range merged.evalVerts {
					for j := merged.evalOff[i]; j < merged.evalOff[i+1]; j++ {
						if int(merged.adjV[j]) == u && merged.adjW[j] == 0 {
							zeroSelf++
						}
					}
				}
				merged.cluster()
				check("merged", merged)
				r := gen.NewRNG(uint64(19 + c.Rank()))
				for _, u := range merged.evalVerts {
					merged.comm[u] = merged.evalVerts[r.Intn(len(merged.evalVerts)/20+1)]
				}
				check("merged, coarse assignment", merged)
				if total := c.AllreduceI64(int64(zeroSelf), mpi.OpSum); total == 0 && c.Rank() == 0 {
					mu.Lock()
					t.Errorf("no zero-weight self-arc reached the merged level; the markers went untested")
					mu.Unlock()
				}
			})
		})
	}
}
