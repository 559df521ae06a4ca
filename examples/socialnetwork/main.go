// Socialnetwork: detect friend circles in a LiveJournal-like social
// graph (power-law degrees, planted friend circles of skewed sizes) and
// study how the simulated cluster size affects the distributed
// algorithm: modeled time, result stability across p, and agreement
// with sequential Infomap.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"time"

	"dinfomap"
)

func main() {
	// A social network: power-law popularity (celebrities = hubs),
	// 200 friend circles of skewed sizes, 30% of friendships crossing
	// circles.
	pg := dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
		N:           20000,
		NumComms:    200,
		AvgDegree:   14,
		Mixing:      0.3,
		SizeSkew:    0.4,
		DegreeGamma: 2.3,
	}, 2026)
	g := pg.Graph
	fmt.Printf("social network: %d members, %d friendships\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("degrees: %s\n\n", dinfomap.ComputeDegreeStats(g))

	// Sweep simulated cluster sizes, as the paper's scalability study
	// does (Figure 9), and check the partitions stay stable.
	fmt.Printf("%4s %10s %14s %14s %12s %12s\n",
		"p", "modules", "codelength", "modeled", "NMI vs truth", "host wall")
	for _, p := range []int{2, 4, 8, 16} {
		start := time.Now()
		res := dinfomap.RunDistributed(g, dinfomap.DistributedConfig{P: p, Seed: 3})
		fmt.Printf("%4d %10d %14.4f %14s %12.2f %12s\n",
			p, res.NumModules, res.Codelength,
			res.TotalModeled().Round(time.Microsecond),
			dinfomap.NMI(res.Communities, pg.Truth),
			time.Since(start).Round(time.Millisecond))
	}

	// The sequential reference on the same graph: the distributed
	// partitions above should match its quality.
	seq := dinfomap.RunSequential(g, dinfomap.SequentialConfig{Seed: 3})
	fmt.Printf("\nsequential Infomap: %d modules, L=%.4f bits, Q=%.4f, NMI vs truth %.2f\n",
		seq.NumModules, seq.Codelength, dinfomap.Modularity(g, seq.Communities),
		dinfomap.NMI(seq.Communities, pg.Truth))
}
