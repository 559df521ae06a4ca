// Compare: run all four community detection algorithms in this
// repository on the same ground-truth graph and print a scoreboard —
// quality (NMI vs truth, codelength, modularity) and cost. This mirrors
// the paper's positioning of its algorithm against sequential Infomap,
// RelaxMap and GossipMap.
//
//	go run ./examples/compare
package main

import (
	"fmt"
	"time"

	"dinfomap"
)

func main() {
	pg := dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
		N:           8000,
		NumComms:    64,
		AvgDegree:   12,
		Mixing:      0.25,
		DegreeGamma: 2.4,
	}, 99)
	g := pg.Graph
	fmt.Printf("benchmark graph: %d vertices, %d edges, 64 planted communities (mu=0.25)\n\n",
		g.NumVertices(), g.NumEdges())

	type row struct {
		name    string
		comms   []int
		modules int
		wall    time.Duration
	}
	var rows []row

	t0 := time.Now()
	seq := dinfomap.RunSequential(g, dinfomap.SequentialConfig{Seed: 5})
	rows = append(rows, row{"sequential Infomap", seq.Communities, seq.NumModules, time.Since(t0)})

	t0 = time.Now()
	dist := dinfomap.RunDistributed(g, dinfomap.DistributedConfig{P: 8, Seed: 5})
	rows = append(rows, row{"distributed Infomap (p=8)", dist.Communities, dist.NumModules, time.Since(t0)})

	t0 = time.Now()
	rlx := dinfomap.RunRelax(g, dinfomap.RelaxConfig{Workers: 8, Seed: 5})
	rows = append(rows, row{"RelaxMap-style (8 workers)", rlx.Communities, rlx.NumModules, time.Since(t0)})

	t0 = time.Now()
	gos := dinfomap.RunGossip(g, dinfomap.GossipConfig{P: 8, Seed: 5})
	rows = append(rows, row{"GossipMap-style (p=8)", gos.Communities, gos.NumModules, time.Since(t0)})

	fmt.Printf("%-28s %8s %10s %12s %8s %10s\n",
		"algorithm", "modules", "NMI", "codelength", "Q", "host wall")
	for _, r := range rows {
		fmt.Printf("%-28s %8d %10.3f %12.4f %8.3f %10s\n",
			r.name, r.modules,
			dinfomap.NMI(r.comms, pg.Truth),
			dinfomap.CodelengthOf(g, r.comms),
			dinfomap.Modularity(g, r.comms),
			r.wall.Round(time.Millisecond))
	}
	fmt.Println("\nNMI is against the planted ground truth; lower codelength and")
	fmt.Println("higher modularity are better. Host wall times share one machine")
	fmt.Println("and are not the paper's distributed timings (see EXPERIMENTS.md).")
}
