package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
)

// star returns a hub-and-spokes graph plus a few spoke-spoke edges.
func star(spokes int) *graph.Graph {
	b := graph.NewBuilder(spokes + 1)
	for v := 1; v <= spokes; v++ {
		b.AddEdge(0, v)
	}
	for v := 1; v+1 <= spokes; v += 2 {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

func TestRoundRobinOwner(t *testing.T) {
	owner := RoundRobinOwner(10, 3)
	for u, r := range owner {
		if r != u%3 {
			t.Fatalf("owner[%d] = %d, want %d", u, r, u%3)
		}
	}
}

func TestOneDAssignsAllArcs(t *testing.T) {
	g := star(20)
	l := OneD(g, 4)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, arcs := range l.RankArcs {
		total += len(arcs)
	}
	if total != g.NumArcs() {
		t.Fatalf("assigned %d arcs, graph has %d", total, g.NumArcs())
	}
}

func TestOneDHubImbalance(t *testing.T) {
	// The hub (vertex 0, owned by rank 0) makes rank 0's load dominate:
	// this is precisely the pathology of Figure 1.
	g := star(100)
	l := OneD(g, 4)
	st := l.Stats()
	if st.MaxEdges < 100 {
		t.Fatalf("hub owner load = %d, want >= 100", st.MaxEdges)
	}
	if st.EdgeImbalance < 1.5 {
		t.Fatalf("imbalance = %.2f, expected severe for a star under 1D", st.EdgeImbalance)
	}
}

func TestDelegateBalancesStar(t *testing.T) {
	g := star(100)
	l := Delegate(g, 4, DelegateOptions{})
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !l.IsHub[0] {
		t.Fatal("vertex 0 (degree 100) not delegated with threshold p=4")
	}
	st := l.Stats()
	if st.EdgeImbalance > 1.3 {
		t.Fatalf("delegate imbalance = %.2f, want <= 1.3", st.EdgeImbalance)
	}
}

func TestDelegateDefaultThresholdIsP(t *testing.T) {
	g := star(10)
	l := Delegate(g, 8, DelegateOptions{})
	if l.DHigh != 8 {
		t.Fatalf("DHigh = %d, want 8 (the paper's default)", l.DHigh)
	}
	// Vertex 0 has degree 10 > 8 -> hub; spokes have degree <= 2.
	if l.NumHubs != 1 {
		t.Fatalf("NumHubs = %d, want 1", l.NumHubs)
	}
}

func TestDelegateExplicitThreshold(t *testing.T) {
	g := star(10)
	l := Delegate(g, 2, DelegateOptions{DHigh: 1000})
	if l.NumHubs != 0 {
		t.Fatalf("NumHubs = %d, want 0 with a huge threshold", l.NumHubs)
	}
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestDelegateSingleRank pins the p = 1 rule: whatever the threshold,
// one rank delegates nothing, records the 1D threshold 0, and holds
// every arc in adjacency order.
func TestDelegateSingleRank(t *testing.T) {
	g := gen.PowerLawGraph(9, 2000, 2.0, 2, 200)
	var want []Arc
	for u := 0; u < g.NumVertices(); u++ {
		g.Neighbors(u, func(v int, w float64) {
			want = append(want, Arc{U: int32(u), V: int32(v), W: w})
		})
	}
	for _, dHigh := range []int{0, 1, 3, 1 << 30} {
		for _, noRebalance := range []bool{false, true} {
			opts := DelegateOptions{DHigh: dHigh, NoRebalance: noRebalance}
			l := Delegate(g, 1, opts)
			if l.NumHubs != 0 || l.DHigh != 0 {
				t.Fatalf("%+v: NumHubs = %d, DHigh = %d, want 0 and 0", opts, l.NumHubs, l.DHigh)
			}
			if st := l.Stats(); st.NumHubs != 0 || st.MaxGhosts != 0 {
				t.Fatalf("%+v: stats report %d hubs, %d ghosts, want none", opts, st.NumHubs, st.MaxGhosts)
			}
			if err := l.Validate(g); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if !reflect.DeepEqual(l.RankArcs[0], want) {
				t.Fatalf("%+v: rank 0's arcs are not the adjacency-order arc list", opts)
			}
		}
	}
}

func TestDelegateHubArcsColocateWithTarget(t *testing.T) {
	g := star(40)
	l := Delegate(g, 4, DelegateOptions{NoRebalance: true})
	for r, arcs := range l.RankArcs {
		for _, a := range arcs {
			if l.IsHub[a.U] && !l.IsHub[a.V] && l.Owner[a.V] != r {
				t.Fatalf("hub arc (%d,%d) on rank %d, target owner %d (no rebalance)",
					a.U, a.V, r, l.Owner[a.V])
			}
		}
	}
}

func TestGhostsExcludeHubsAndOwned(t *testing.T) {
	g := star(40)
	l := Delegate(g, 4, DelegateOptions{})
	for r := 0; r < 4; r++ {
		for _, v := range l.Ghosts(r) {
			if l.IsHub[v] {
				t.Fatalf("hub %d listed as ghost on rank %d", v, r)
			}
			if l.Owner[v] == r {
				t.Fatalf("owned vertex %d listed as ghost on its own rank %d", v, r)
			}
		}
	}
}

func TestRebalanceReducesSpread(t *testing.T) {
	// Scale-free graph: rebalancing should not increase the max load.
	g := gen.PowerLawGraph(3, 3000, 2.0, 2, 300)
	with := Delegate(g, 8, DelegateOptions{})
	without := Delegate(g, 8, DelegateOptions{NoRebalance: true})
	if with.Stats().MaxEdges > without.Stats().MaxEdges {
		t.Fatalf("rebalance increased max load: %d > %d",
			with.Stats().MaxEdges, without.Stats().MaxEdges)
	}
	if err := with.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestDelegateBeats1DOnScaleFree reproduces the headline claim of
// Figures 6-7 in miniature: on a power-law graph the delegate layout has
// a much tighter edge spread and ghost spread than 1D.
func TestDelegateBeats1DOnScaleFree(t *testing.T) {
	g := gen.PowerLawGraph(7, 5000, 1.9, 2, 500)
	p := 16
	oneD := OneD(g, p).Stats()
	del := Delegate(g, p, DelegateOptions{}).Stats()

	if del.EdgeImbalance >= oneD.EdgeImbalance {
		t.Errorf("delegate imbalance %.2f not better than 1D %.2f",
			del.EdgeImbalance, oneD.EdgeImbalance)
	}
	if del.MaxEdges >= oneD.MaxEdges {
		t.Errorf("delegate max edges %d not better than 1D %d", del.MaxEdges, oneD.MaxEdges)
	}
	if del.MaxGhosts > oneD.MaxGhosts {
		t.Errorf("delegate max ghosts %d worse than 1D %d", del.MaxGhosts, oneD.MaxGhosts)
	}
}

func TestOneDPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneD(star(3), 0)
}

func TestStatsOnEmptyRanks(t *testing.T) {
	// More ranks than vertices: some ranks get nothing; stats must not
	// divide by zero or panic.
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	l := OneD(g, 8)
	st := l.Stats()
	if st.MinEdges != 0 {
		t.Fatalf("MinEdges = %d, want 0", st.MinEdges)
	}
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: both layouts assign every arc exactly once on random graphs.
func TestPropertyLayoutsComplete(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw)%7 + 1
		n := 20 + rng.Intn(50)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		l1 := OneD(g, p)
		l2 := Delegate(g, p, DelegateOptions{})
		l3 := Delegate(g, p, DelegateOptions{NoRebalance: true})
		return l1.Validate(g) == nil && l2.Validate(g) == nil && l3.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total arc count is preserved by rebalancing.
func TestPropertyRebalancePreservesArcs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		l := Delegate(g, 4, DelegateOptions{})
		total := 0
		for _, arcs := range l.RankArcs {
			total += len(arcs)
		}
		return total == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOwner(t *testing.T) {
	owner := BlockOwner(10, 3)
	// Contiguous non-decreasing slabs covering [0,3).
	prev := 0
	for u, r := range owner {
		if r < prev || r > 2 {
			t.Fatalf("owner[%d] = %d not a contiguous slab", u, r)
		}
		prev = r
	}
	if owner[0] != 0 || owner[9] != 2 {
		t.Fatalf("endpoints: %v", owner)
	}
}

func TestOneDBlockImbalanceOnDegreeSortedHub(t *testing.T) {
	// Degree-sorted star: vertex 0 is the hub, so the first block gets
	// nearly every arc — the Figure 1 pathology in its purest form.
	b := graph.NewBuilder(40)
	for v := 1; v < 40; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	st := OneD(g, 4).Stats()
	if st.MaxEdges < 39 {
		t.Fatalf("hub block has %d arcs, want >= 39", st.MaxEdges)
	}
	if st.MinEdges > 10 {
		t.Fatalf("tail block has %d arcs, expected starvation", st.MinEdges)
	}
}

// delegateByAppend is the straightforward form of Delegate: one
// placement pass appending to growing lists, then the same rebalance.
// Delegate must reproduce its arcs and their order exactly.
func delegateByAppend(g *graph.Graph, p int, opts DelegateOptions) *Layout {
	n := g.NumVertices()
	l := &Layout{
		P: p, DHigh: opts.DHigh,
		Owner:    RoundRobinOwner(n, p),
		IsHub:    make([]bool, n),
		RankArcs: make([][]Arc, p),
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) > opts.DHigh {
			l.IsHub[u] = true
			l.NumHubs++
		}
	}
	rr := 0
	for u := 0; u < n; u++ {
		g.Neighbors(u, func(v int, w float64) {
			r := l.Owner[u]
			if l.IsHub[u] {
				if l.IsHub[v] {
					r = rr % p
					rr++
				} else {
					r = l.Owner[v]
				}
			}
			l.RankArcs[r] = append(l.RankArcs[r], Arc{U: int32(u), V: int32(v), W: w})
		})
	}
	if !opts.NoRebalance {
		l.rebalance()
	}
	return l
}

// bruteGhosts recomputes Ghosts(r) with a map and a sort.
func bruteGhosts(l *Layout, r int) []int {
	seen := make(map[int]bool)
	for _, a := range l.RankArcs[r] {
		for _, x := range [2]int{int(a.U), int(a.V)} {
			if !l.IsHub[x] && l.Owner[x] != r {
				seen[x] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func TestDelegateMatchesAppendFormAndBruteGhosts(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.PowerLawGraph(seed, 1500, 2.1, 2, 150)
		for _, p := range []int{1, 2, 3, 8} {
			for _, noRebalance := range []bool{false, true} {
				opts := DelegateOptions{DHigh: 3 * p, NoRebalance: noRebalance}
				l := Delegate(g, p, opts)
				if err := l.Validate(g); err != nil {
					t.Fatalf("seed %d p=%d %+v: %v", seed, p, opts, err)
				}
				if want := delegateByAppend(g, p, opts); !reflect.DeepEqual(l.RankArcs, want.RankArcs) {
					t.Fatalf("seed %d p=%d %+v: arcs differ from the append form", seed, p, opts)
				}
				counts := l.GhostCounts()
				for r := 0; r < p; r++ {
					want := bruteGhosts(l, r)
					if got := l.Ghosts(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d p=%d %+v: Ghosts(%d) = %v, want %v", seed, p, opts, r, got, want)
					}
					if counts[r] != len(want) {
						t.Fatalf("seed %d p=%d %+v: GhostCounts()[%d] = %d, want %d",
							seed, p, opts, r, counts[r], len(want))
					}
				}
			}
		}
	}
}

// TestRebalanceKeepsBackingArrays pins that Delegate sizes every rank's
// list for its final length, so rebalancing moves arcs without growing
// (and so copying) any list.
func TestRebalanceKeepsBackingArrays(t *testing.T) {
	g := gen.PowerLawGraph(5, 4000, 2.0, 2, 400)
	for _, p := range []int{2, 3, 8, 16} {
		l := Delegate(g, p, DelegateOptions{NoRebalance: true})
		before := make([]*Arc, p)
		lens := l.EdgeCounts()
		for r, arcs := range l.RankArcs {
			before[r] = unsafe.SliceData(arcs)
		}
		l.rebalance()
		grew := false
		for r, arcs := range l.RankArcs {
			if unsafe.SliceData(arcs) != before[r] {
				t.Fatalf("p=%d: rebalance reallocated rank %d's list", p, r)
			}
			grew = grew || len(arcs) > lens[r]
		}
		if !grew {
			t.Fatalf("p=%d: rebalance moved no arcs; the graph does not exercise it", p)
		}
		want := Delegate(g, p, DelegateOptions{})
		if !reflect.DeepEqual(l.RankArcs, want.RankArcs) {
			t.Fatalf("p=%d: rebalancing in place differs from Delegate", p)
		}
	}
}

// TestDelegateAllocs bounds Delegate's allocations: a fixed handful
// plus one list per rank. Lists that grow while being filled would add
// dozens more.
func TestDelegateAllocs(t *testing.T) {
	g := benchGraph()
	const p = 16
	allocs := testing.AllocsPerRun(3, func() { Delegate(g, p, DelegateOptions{}) })
	if allocs > p+12 {
		t.Fatalf("Delegate at p=%d made %v allocations, want <= %d", p, allocs, p+12)
	}
}

// perRankLayout runs the per-rank steps of a distributed run on g, each
// rank seeing only its own rows: PlaceRow over its rows with cursors
// from the hub-hub prefix, a per-destination merge by evaluation vertex,
// RebalancePlan from the (length, hub arcs) pairs with TakeHubArcs at the
// sources and plan-order appends at the destinations, and the balance
// summary from per-rank ghost counts.
func perRankLayout(g *graph.Graph, p int, opts DelegateOptions) ([][]Arc, BalanceStats) {
	dHigh := HubThreshold(p, opts.DHigh)
	n := g.NumVertices()
	isHub := make([]bool, n)
	numHubs := 0
	for u := 0; u < n; u++ {
		if dHigh > 0 && g.Degree(u) > dHigh {
			isHub[u] = true
			numHubs++
		}
	}
	rrStart := make([]int, n)
	rr := 0
	for u := 0; u < n; u++ {
		if isHub[u] {
			rrStart[u] = rr
			t, _ := g.NeighborSlice(u)
			rr += HubHubArcs(t, isHub)
		}
	}
	streams := make([][][]Arc, p) // streams[src][dst]
	for src := range streams {
		streams[src] = make([][]Arc, p)
		rows := g.Rows(src, p)
		for i := 0; i < rows.NumRows(); i++ {
			u := rows.Vertex(i)
			t, w := rows.Row(i)
			cursor := rrStart[u]
			PlaceRow(u, t, w, isHub, p, &cursor, func(r, u, v int, w float64) {
				streams[src][r] = append(streams[src][r], Arc{U: int32(u), V: int32(v), W: w})
			})
		}
	}
	lists := make([][]Arc, p)
	for dst := range lists {
		pos := make([]int, p)
		for u := 0; u < n; u++ {
			s := streams[u%p][dst]
			for pos[u%p] < len(s) && int(s[pos[u%p]].U) == u {
				lists[dst] = append(lists[dst], s[pos[u%p]])
				pos[u%p]++
			}
		}
	}
	if !opts.NoRebalance {
		lens, hubArcs := make([]int, p), make([]int, p)
		for r, l := range lists {
			lens[r], hubArcs[r] = len(l), CountHubArcs(l, isHub)
		}
		plan := RebalancePlan(lens, hubArcs)
		sent := make([][]Arc, len(plan))
		for src := range lists {
			for k, m := range plan {
				if m.Src == src {
					lists[src], sent[k] = TakeHubArcs(lists[src], isHub, m.Count, nil)
				}
			}
		}
		for dst := range lists {
			for k, m := range plan {
				if m.Dst == dst {
					lists[dst] = append(lists[dst], sent[k]...)
				}
			}
		}
	}
	edges, ghosts := make([]int, p), make([]int, p)
	for r, l := range lists {
		edges[r] = len(l)
		ghosts[r] = markGhosts(l, isHub, func(x int) int { return x % p }, r, make([]bool, n))
	}
	return lists, BalanceOf(edges, ghosts, numHubs)
}

// hubbyGraph is a random weighted graph with hubs, hub-hub edges,
// parallel edges and self-loops.
func hubbyGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	hubs := 1 + rng.Intn(6)
	for i := 0; i < 6*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) == 0 {
			u = rng.Intn(hubs)
		}
		if rng.Intn(6) == 0 {
			v = rng.Intn(hubs)
		}
		if rng.Intn(20) == 0 {
			v = u
		}
		b.AddWeightedEdge(u, v, float64(1+rng.Intn(4)))
	}
	return b.Build()
}

func TestPerRankStepsMatchDelegate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		g := hubbyGraph(rng, 30+rng.Intn(300))
		for _, p := range []int{1, 2, 3, 4, 8} {
			for _, noRebalance := range []bool{false, true} {
				opts := DelegateOptions{DHigh: 2 + rng.Intn(8), NoRebalance: noRebalance}
				want := Delegate(g, p, opts)
				lists, st := perRankLayout(g, p, opts)
				for r := range lists {
					if !slices.Equal(lists[r], want.RankArcs[r]) {
						t.Fatalf("trial %d p=%d %+v: rank %d's list differs from Delegate's", trial, p, opts, r)
					}
				}
				if st != want.Stats() {
					t.Fatalf("trial %d p=%d %+v: stats %+v, Delegate has %+v", trial, p, opts, st, want.Stats())
				}
				if p > 1 && want.NumHubs == 0 {
					t.Fatalf("trial %d p=%d: no hubs", trial, p)
				}
			}
		}
	}
}
