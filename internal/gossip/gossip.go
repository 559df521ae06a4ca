// Package gossip implements a GossipMap-style distributed community
// detection baseline (Bae & Howe 2015): flow-weighted label propagation
// over a plain 1D-partitioned graph, using only information local to
// each processor — the class of "relatively simple methods" Section 2.3
// of the paper contrasts with its fully synchronized algorithm.
//
// Two deliberate differences from internal/core reproduce the paper's
// comparison: (1) no delegate partitioning, so hubs concentrate load on
// their owner rank; (2) no module-statistics exchange, so moves are
// driven by local link weights rather than the exact map equation. The
// final codelength is evaluated exactly afterward for comparison, and
// the measured per-rank work and traffic feed the same cost model as
// the main algorithm, which is how the Table 3 speedups are produced.
package gossip

import (
	"time"

	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/partition"
	"dinfomap/internal/trace"
)

// Config controls a gossip baseline run.
type Config struct {
	// P is the number of simulated ranks; < 1 means 1.
	P int
	// MaxOuterIterations bounds propagate+contract rounds; <= 0 means 25.
	MaxOuterIterations int
	// MaxSweeps bounds label-propagation supersteps per level;
	// <= 0 means 50.
	MaxSweeps int
	// Seed randomizes sweep order.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.P < 1 {
		c.P = 1
	}
	if c.MaxOuterIterations <= 0 {
		c.MaxOuterIterations = 25
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 50
	}
	return c
}

// Result reports a finished run.
type Result struct {
	// Communities assigns each original vertex its final community.
	Communities []int
	// NumModules is the number of final communities.
	NumModules int
	// Codelength is the exact two-level map equation of the final
	// partition (evaluated after the fact; the algorithm itself never
	// computes it).
	Codelength float64
	// Modeled is the alpha-beta modeled end-to-end time.
	Modeled time.Duration
	// OuterIterations counts propagate+contract rounds.
	OuterIterations int
}

// Run executes the baseline on g.
func Run(g *graph.Graph, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n0 := g.NumVertices()
	res := &Result{Communities: make([]int, n0)}
	for u := range res.Communities {
		res.Communities[u] = u
	}
	//dinfomap:float-ok exact emptiness guard: weight is a sum of strictly positive addends
	if n0 == 0 || g.TotalWeight() == 0 {
		res.NumModules = n0
		return res
	}
	level := g
	// Aggressive label adoption can over-merge; like GossipMap, the
	// outer loop is guarded by the map equation: keep the best
	// assignment seen, stop as soon as a contraction round makes the
	// codelength worse.
	orig2level := make([]int, n0) // original vertex -> level vertex
	for u := range orig2level {
		orig2level[u] = u
	}
	bestComm := append([]int(nil), res.Communities...)
	bestL := exactL(g, bestComm)
	for outer := 0; outer < cfg.MaxOuterIterations; outer++ {
		comm, modeled := propagate(level, cfg, uint64(outer))
		res.Modeled += modeled
		res.OuterIterations++
		dense, k := graph.Renumber(comm)
		projected := make([]int, n0)
		for u := range projected {
			projected[u] = dense[orig2level[u]]
		}
		l := exactL(g, projected)
		if l >= bestL-1e-12 {
			break // no further compression: keep the best seen
		}
		bestL = l
		copy(bestComm, projected)
		if k == level.NumVertices() || k <= 1 {
			break
		}
		contracted, remap := graph.Contract(level, dense)
		for u := range orig2level {
			orig2level[u] = remap[projected[u]]
		}
		level = contracted
	}
	dense, k := graph.Renumber(bestComm)
	res.Communities = dense
	res.NumModules = k
	res.Codelength = bestL
	return res
}

// propagate runs flow-weighted label propagation on one level over 1D-
// partitioned ranks and returns the converged assignment plus the
// modeled time of the level (max-rank compute + communication).
func propagate(g *graph.Graph, cfg Config, salt uint64) ([]int, time.Duration) {
	n := g.NumVertices()
	p := cfg.P
	layout := partition.OneD(g, p)
	final := make([]int, n)
	costs := make([]trace.RankCost, p)

	stats := mpi.Run(p, func(c *mpi.Comm) {
		rank := c.Rank()
		comm := make([]int, n)
		for v := range comm {
			comm[v] = v
		}
		// Local arcs grouped per owned vertex (1D: all arcs of owner).
		arcs := layout.RankArcs[rank]
		var ops int64

		// Ghosts to register for boundary sync (the same registration as core).
		ghostSet := map[int]bool{}
		for _, a := range arcs {
			if layout.Owner[a.V] != rank {
				ghostSet[int(a.V)] = true
			}
		}
		encs := make([]*mpi.Encoder, p)
		for v := range ghostSet {
			o := layout.Owner[v]
			if encs[o] == nil {
				encs[o] = mpi.NewEncoder(64)
			}
			encs[o].PutInt(v)
		}
		bufs := make([][]byte, p)
		for r, e := range encs {
			if e != nil {
				bufs[r] = e.Bytes()
			}
		}
		recv := c.Alltoallv(bufs)
		subscribers := map[int][]int{}
		for src, b := range recv {
			d := mpi.NewDecoder(b)
			for d.Remaining() > 0 {
				v := d.Int()
				subscribers[v] = append(subscribers[v], src)
			}
		}

		wTo := make(map[int]float64, 16)
		for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
			moves := 0
			// One pass over owned vertices in arc order: adopt the
			// neighbor label with maximum incident flow.
			i := 0
			for i < len(arcs) {
				u := int(arcs[i].U)
				for k := range wTo {
					delete(wTo, k)
				}
				for i < len(arcs) && int(arcs[i].U) == u {
					if int(arcs[i].V) != u {
						wTo[comm[arcs[i].V]] += arcs[i].W
					}
					ops++
					i++
				}
				if len(wTo) == 0 {
					continue
				}
				bestC, bestW := comm[u], wTo[comm[u]]
				for cc, w := range wTo {
					//dinfomap:float-ok order-independent argmax: equal weights resolved by smallest community id
					if w > bestW || (w == bestW && cc < bestC) {
						bestC, bestW = cc, w
					}
				}
				if bestC != comm[u] {
					comm[u] = bestC
					moves++
				}
			}
			// Boundary sync.
			encs := make([]*mpi.Encoder, p)
			for v, subs := range subscribers {
				for _, dst := range subs {
					if encs[dst] == nil {
						encs[dst] = mpi.NewEncoder(128)
					}
					encs[dst].PutInt(v)
					encs[dst].PutInt(comm[v])
				}
			}
			bufs := make([][]byte, p)
			for r, e := range encs {
				if e != nil {
					bufs[r] = e.Bytes()
				}
			}
			for src, b := range c.Alltoallv(bufs) {
				_ = src
				d := mpi.NewDecoder(b)
				for d.Remaining() > 0 {
					v := d.Int()
					comm[v] = d.Int()
				}
			}
			if c.AllreduceI64(int64(moves), mpi.OpSum) == 0 {
				break
			}
		}
		// Final gather of owned assignments.
		e := mpi.NewEncoder(1024)
		for v := 0; v < n; v++ {
			if layout.Owner[v] == rank {
				e.PutInt(v)
				e.PutInt(comm[v])
			}
		}
		for _, b := range c.AllgatherBytes(e.Bytes()) {
			d := mpi.NewDecoder(b)
			for d.Remaining() > 0 {
				v := d.Int()
				comm[v] = d.Int()
			}
		}
		if rank == 0 {
			copy(final, comm)
		}
		costs[rank] = trace.RankCost{Ops: ops}
	})
	for r, s := range stats {
		costs[r].Msgs = s.MsgsSent + s.CollectiveMsgs
		costs[r].Bytes = s.BytesSent + s.CollectiveBytes
	}
	return final, trace.DefaultCostModel().StepTime(costs)
}

// exactL evaluates the two-level map equation of comm on g.
func exactL(g *graph.Graph, comm []int) float64 {
	flow := mapeq.NewVertexFlow(g)
	dense, k := graph.Renumber(comm)
	mods := make([]mapeq.Module, k)
	inv2W := flow.Norm()
	for u := 0; u < g.NumVertices(); u++ {
		cc := dense[u]
		mods[cc].SumPr += flow.P[u]
		mods[cc].Members++
		g.Neighbors(u, func(v int, w float64) {
			if v != u && dense[v] != cc {
				mods[cc].ExitPr += w * inv2W
			}
		})
	}
	return mapeq.AggregateModules(mods, flow.SumPlogpP).L()
}
