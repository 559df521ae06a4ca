// Package partition implements the two graph distribution strategies the
// paper compares: plain 1D round-robin partitioning, and the delegate
// partitioning of Pearce et al. (SC'14) that the paper adopts to balance
// both workload and communication on scale-free graphs (Section 3.3).
//
// A Layout assigns every *arc* (directed evaluation edge) of the graph to
// a rank. Each vertex u owned by rank r keeps its full adjacency as arcs
// (u, v) on r, because the Infomap inner loop needs all neighbors of u to
// evaluate delta-L. High-degree vertices ("hubs") are instead duplicated
// on every rank as delegates, and their arcs are placed with the arc's
// target (then optionally rebalanced), so no single rank carries a hub's
// entire adjacency.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"dinfomap/internal/graph"
)

// Arc is one directed evaluation edge: the rank holding it evaluates
// vertex U against neighbor V with edge weight W. Ids are 32-bit, as
// edge-list ids are (graph.MaxID), which keeps an arc at 16 bytes.
type Arc struct {
	U, V int32
	W    float64
}

// Layout is the result of partitioning a graph over P ranks.
type Layout struct {
	P     int
	DHigh int // hub threshold used (0 for 1D layouts)

	// Owner[u] is the home rank of vertex u (round-robin u mod P).
	// Hubs also have a home rank, used for merge-phase ownership.
	Owner []int
	// IsHub[u] reports whether u is duplicated on all ranks.
	IsHub []bool
	// RankArcs[r] lists the arcs assigned to rank r.
	RankArcs [][]Arc
	// NumHubs is the number of delegated vertices.
	NumHubs int
}

// RoundRobinOwner returns the 1D round-robin ownership map u -> u mod p.
// Delegate partitioning uses it for the low-degree vertices
// (Section 3.3, "a round-robin 1D partitioning").
func RoundRobinOwner(n, p int) []int {
	owner := make([]int, n)
	for u := range owner {
		owner[u] = u % p
	}
	return owner
}

// BlockOwner returns the contiguous-range 1D ownership map: vertex u
// belongs to rank u*p/n. This is the conventional "1D partitioning" the
// paper compares against (Figures 1, 6, 7): each rank takes a slab of
// the vertex id space together with the full adjacency of those
// vertices. On real graphs vertex ids correlate with degree (crawl
// order, account age), so slabs containing hubs are drastically
// overloaded.
func BlockOwner(n, p int) []int {
	owner := make([]int, n)
	for u := range owner {
		owner[u] = u * p / n
	}
	return owner
}

// OneD computes the baseline 1D block layout: every vertex's full
// adjacency is stored with its owner. This is the strategy whose
// imbalance on scale-free graphs motivates the paper (Figure 1).
func OneD(g *graph.Graph, p int) *Layout {
	if p < 1 {
		panic(fmt.Sprintf("partition: OneD with p=%d", p))
	}
	n := g.NumVertices()
	if n == 0 {
		return &Layout{P: p, RankArcs: make([][]Arc, p)}
	}
	l := &Layout{
		P:        p,
		Owner:    BlockOwner(n, p),
		IsHub:    make([]bool, n),
		RankArcs: make([][]Arc, p),
	}
	for u := 0; u < n; u++ {
		r := l.Owner[u]
		g.Neighbors(u, func(v int, w float64) {
			l.RankArcs[r] = append(l.RankArcs[r], Arc{U: int32(u), V: int32(v), W: w})
		})
	}
	return l
}

// DelegateOptions configures Delegate partitioning.
type DelegateOptions struct {
	// DHigh is the hub degree threshold: vertices with Degree > DHigh
	// are delegated. <= 0 means the paper's default, DHigh = p
	// (Section 4: "We set the threshold d_high as the processor number").
	// It is ignored at p = 1, where Delegate delegates nothing.
	DHigh int
	// NoRebalance disables the fourth preprocessing step (moving
	// hub-sourced arcs toward |E|/p per rank); used by the ablation.
	NoRebalance bool
}

// Delegate computes the delegate layout of Section 3.3:
//
//  1. degrees are computed and visit probabilities derive from them
//     (handled by package mapeq);
//  2. vertices with degree > DHigh become hubs, duplicated on all ranks;
//  3. arcs with a low-degree evaluation vertex stay with that vertex's
//     owner; arcs evaluated at a hub are placed with the arc's *target*
//     (so delegate and target co-locate); hub-hub arcs round-robin;
//  4. hub-sourced arcs are reassigned from overloaded to underloaded
//     ranks until every rank is close to the mean arc count.
//
// With p = 1 there is nothing to spread, so no vertex is delegated,
// whatever opts.DHigh is, and the layout records DHigh = 0 like a 1D
// layout. A hub would only cost the run: a delegate moves once per
// synchronized round, an owned vertex in every local pass.
//
// Delegate is the in-memory composition of the per-rank steps a
// distributed run takes with each rank holding only its own rows:
// HubThreshold, PlaceRow over every row in vertex order (the order a
// rank's received arcs are merged in), RebalancePlan and TakeHubArcs.
func Delegate(g *graph.Graph, p int, opts DelegateOptions) *Layout {
	if p < 1 {
		panic(fmt.Sprintf("partition: Delegate with p=%d", p))
	}
	dHigh := HubThreshold(p, opts.DHigh)
	n := g.NumVertices()
	l := &Layout{
		P:        p,
		DHigh:    dHigh,
		Owner:    RoundRobinOwner(n, p),
		IsHub:    make([]bool, n),
		RankArcs: make([][]Arc, p),
	}
	for u := 0; u < n; u++ {
		if dHigh > 0 && g.Degree(u) > dHigh {
			l.IsHub[u] = true
			l.NumHubs++
		}
	}
	// The placement rule runs twice: once to count each rank's arcs,
	// once to fill lists allocated at their final capacity. Rebalancing
	// only fills ranks up to the mean, so capacity max(count, mean+1)
	// means no list ever grows (or is copied) along the way.
	counts := make([]int, p)
	l.placeArcs(g, func(r, _, _ int, _ float64) { counts[r]++ })
	mean := g.NumArcs() / p
	for r, c := range counts {
		l.RankArcs[r] = make([]Arc, 0, max(c, mean+1))
	}
	l.placeArcs(g, func(r, u, v int, w float64) {
		l.RankArcs[r] = append(l.RankArcs[r], Arc{U: int32(u), V: int32(v), W: w})
	})
	if !opts.NoRebalance {
		l.rebalance()
	}
	return l
}

// HubThreshold returns the d_high a delegate layout over p ranks uses
// when asked for dHigh: 0 (nothing delegated) at p = 1, p when dHigh
// <= 0, dHigh otherwise. Vertices with degree > d_high are hubs.
func HubThreshold(p, dHigh int) int {
	switch {
	case p == 1:
		return 0
	case dHigh <= 0:
		return p
	}
	return dHigh
}

// placeArcs applies the placement rule to every row of g in vertex
// order, calling put with each arc's rank. The rule is deterministic,
// so repeated calls place every arc identically.
func (l *Layout) placeArcs(g *graph.Graph, put func(r, u, v int, w float64)) {
	rr := 0 // round-robin cursor for hub-hub arcs
	for u := range l.Owner {
		targets, weights := g.NeighborSlice(u)
		PlaceRow(u, targets, weights, l.IsHub, l.P, &rr, put)
	}
}

// PlaceRow is Delegate's placement rule for the arcs (u, v, w) of one
// row, in row order: an arc of a low-degree u stays with u's owner, an
// arc from a hub to a low-degree v goes to v's owner, and hub-hub arcs
// go round-robin from the cursor *rr, which advances once per such arc.
// Over a whole layout the cursor starts at 0 and runs through the rows
// in vertex order, so a hub's row starts at the number of hub-hub arcs
// of the hubs below it (see HubHubArcs). weights nil means all 1.
func PlaceRow[T int | int32](u int, targets []T, weights []float64, isHub []bool, p int, rr *int, put func(r, u, v int, w float64)) {
	uHub := isHub[u]
	for i, t := range targets {
		v := int(t)
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		var r int
		switch {
		case !uHub:
			r = u % p // low-degree: stay with owner
		case !isHub[v]:
			r = v % p // hub evaluated where its target lives
		default:
			r = *rr % p // hub-hub: anywhere; start round-robin
			*rr++
		}
		put(r, u, v, w)
	}
}

// HubHubArcs counts the arcs of a row whose target is a hub: for a hub
// row, how far the row advances PlaceRow's cursor.
func HubHubArcs[T int | int32](targets []T, isHub []bool) int {
	k := 0
	for _, v := range targets {
		if isHub[v] {
			k++
		}
	}
	return k
}

// Move is one step of a rebalance plan: rank Src hands Count of its
// hub-sourced arcs to rank Dst.
type Move struct{ Src, Dst, Count int }

// RebalancePlan computes the fourth preprocessing step, moving
// hub-sourced arcs from overloaded to underloaded ranks, from each
// rank's list length and hub-sourced arc count alone. Only arcs whose
// evaluation vertex is a hub are movable: the hub is present
// everywhere, so its partial adjacency can live on any rank, whereas a
// low-degree vertex's arcs must stay with its owner. Every rank that
// knows the p (length, hub count) pairs computes the same plan; a
// source applies its moves with TakeHubArcs, and a destination appends
// what it receives in plan order. Sources and destinations are
// disjoint: a source never drops below the mean, a destination never
// rises above it.
func RebalancePlan(lens, hubArcs []int) []Move {
	p := len(lens)
	state := make([]int, 3*p)
	lens = append(state[:0:p], lens...)
	hubs := append(state[p:p:2*p], hubArcs...)
	total := 0
	for _, n := range lens {
		total += n
	}
	mean := total / p
	// Ranks sorted by load, heaviest first.
	order := state[2*p:]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })
	plan := make([]Move, 0, p)
	light := p - 1 // index into order from the light end
	for _, heavy := range order {
		for lens[heavy] > mean+1 && light >= 0 {
			dst := order[light]
			if dst == heavy || lens[dst] >= mean {
				light--
				continue
			}
			k := min(mean-lens[dst], lens[heavy]-mean, hubs[heavy])
			if k == 0 {
				break // no movable arcs remain on this rank
			}
			plan = append(plan, Move{Src: heavy, Dst: dst, Count: k})
			lens[heavy] -= k
			hubs[heavy] -= k
			lens[dst] += k
			hubs[dst] += k
		}
	}
	return plan
}

// TakeHubArcs removes k hub-sourced arcs from arcs, scanning from the
// end and filling each hole with the current last arc, and appends each
// removed arc to moved in removal order. The list must hold at least k
// such arcs (RebalancePlan guarantees it). It returns the shortened
// list, which keeps its backing array, and the extended moved.
func TakeHubArcs(arcs []Arc, isHub []bool, k int, moved []Arc) (rest, movedOut []Arc) {
	for i := len(arcs) - 1; i >= 0 && k > 0; i-- {
		if isHub[arcs[i].U] {
			moved = append(moved, arcs[i])
			arcs[i] = arcs[len(arcs)-1]
			arcs = arcs[:len(arcs)-1]
			k--
		}
	}
	return arcs, moved
}

// rebalance applies RebalancePlan to the layout's lists in place.
func (l *Layout) rebalance() {
	lens := l.EdgeCounts()
	hubArcs := make([]int, l.P)
	for r, arcs := range l.RankArcs {
		hubArcs[r] = CountHubArcs(arcs, l.IsHub)
	}
	for _, m := range RebalancePlan(lens, hubArcs) {
		l.RankArcs[m.Src], l.RankArcs[m.Dst] = TakeHubArcs(l.RankArcs[m.Src], l.IsHub, m.Count, l.RankArcs[m.Dst])
	}
}

// CountHubArcs counts the hub-sourced arcs of a list: what a rank
// contributes, beside its list length, to RebalancePlan.
func CountHubArcs(arcs []Arc, isHub []bool) int {
	k := 0
	for _, a := range arcs {
		if isHub[a.U] {
			k++
		}
	}
	return k
}

// EdgeCounts returns the number of arcs on each rank — the workload
// measure of Figure 6 ("the total workload is proportional to the total
// edge number on this processor").
func (l *Layout) EdgeCounts() []int {
	counts := make([]int, l.P)
	for r, arcs := range l.RankArcs {
		counts[r] = len(arcs)
	}
	return counts
}

// Ghosts returns the sorted ghost vertices of rank r: vertices referenced
// by local arcs that are neither owned by r nor delegates. Communication
// volume is proportional to the ghost count (Figure 7).
func (l *Layout) Ghosts(r int) []int {
	seen := make([]bool, len(l.Owner))
	count := l.markGhosts(r, seen)
	out := make([]int, 0, count)
	for v, ok := range seen {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// GhostCounts returns the ghost vertex count of each rank.
func (l *Layout) GhostCounts() []int {
	counts := make([]int, l.P)
	seen := make([]bool, len(l.Owner))
	for r := range counts {
		clear(seen)
		counts[r] = l.markGhosts(r, seen)
	}
	return counts
}

// markGhosts sets seen[x] for every ghost vertex x of rank r and returns
// how many it newly marked. seen is indexed by vertex.
func (l *Layout) markGhosts(r int, seen []bool) int {
	return markGhosts(l.RankArcs[r], l.IsHub, func(x int) int { return l.Owner[x] }, r, seen)
}

func markGhosts(arcs []Arc, isHub []bool, owner func(int) int, r int, seen []bool) int {
	count := 0
	for _, a := range arcs {
		for _, x := range [2]int{int(a.U), int(a.V)} {
			if !seen[x] && !isHub[x] && owner(x) != r {
				seen[x] = true
				count++
			}
		}
	}
	return count
}

// BalanceStats summarizes a layout for the Figure 6/7 experiments.
type BalanceStats struct {
	MinEdges, MaxEdges   int
	MinGhosts, MaxGhosts int
	NumHubs              int
	// EdgeImbalance is MaxEdges / mean edges (1.0 = perfectly balanced).
	EdgeImbalance float64
}

// Stats computes the balance summary of l.
func (l *Layout) Stats() BalanceStats {
	return BalanceOf(l.EdgeCounts(), l.GhostCounts(), l.NumHubs)
}

// BalanceOf is the balance summary of a layout with the given per-rank
// arc and ghost counts.
func BalanceOf(edges, ghosts []int, numHubs int) BalanceStats {
	st := BalanceStats{
		MinEdges:  slices.Min(edges),
		MaxEdges:  slices.Max(edges),
		MinGhosts: slices.Min(ghosts),
		MaxGhosts: slices.Max(ghosts),
		NumHubs:   numHubs,
	}
	total := 0
	for _, e := range edges {
		total += e
	}
	if total > 0 {
		st.EdgeImbalance = float64(st.MaxEdges) * float64(len(edges)) / float64(total)
	}
	return st
}

// Validate checks layout invariants: every arc of the graph is assigned
// to exactly one rank, low-degree arcs live with their owner, and hub
// flags match the threshold. Used by tests.
func (l *Layout) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	if len(l.Owner) != n || len(l.IsHub) != n {
		return fmt.Errorf("partition: owner/hub arrays sized %d/%d for %d vertices",
			len(l.Owner), len(l.IsHub), n)
	}
	// Count arcs per (u,v) pair across ranks.
	type key struct{ u, v int }
	assigned := make(map[key]int)
	for r, arcs := range l.RankArcs {
		for _, a := range arcs {
			assigned[key{int(a.U), int(a.V)}]++
			if !l.IsHub[a.U] && l.Owner[a.U] != r {
				return fmt.Errorf("partition: low-degree arc (%d,%d) on rank %d, owner is %d",
					a.U, a.V, r, l.Owner[a.U])
			}
			//dinfomap:float-ok invariant check: rank arcs store bit-identical copies of graph weights
			if w := g.EdgeWeight(int(a.U), int(a.V)); w != a.W {
				return fmt.Errorf("partition: arc (%d,%d) weight %v, graph has %v", a.U, a.V, a.W, w)
			}
		}
	}
	for u := 0; u < n; u++ {
		var wantHub bool
		if l.DHigh > 0 {
			wantHub = g.Degree(u) > l.DHigh
		}
		if l.IsHub[u] != wantHub {
			return fmt.Errorf("partition: IsHub[%d] = %v, degree %d, threshold %d",
				u, l.IsHub[u], g.Degree(u), l.DHigh)
		}
		count := 0
		g.Neighbors(u, func(v int, _ float64) {
			if assigned[key{u, v}] != 1 {
				count++
			}
		})
		if count != 0 {
			return fmt.Errorf("partition: vertex %d has %d arcs not assigned exactly once", u, count)
		}
	}
	return nil
}
