// Command graphgen generates the synthetic datasets used by the
// reproduction and writes them as edge lists.
//
// Usage:
//
//	graphgen -dataset uk-2005 [-scale 0.5] [-seed 0] [-o uk2005.txt]
//	graphgen -kind powerlaw -n 100000 -gamma 2.1 [-o pl.txt]
//	graphgen -kind planted -n 10000 -comms 50 -mixing 0.2 [-truth t.txt]
//	graphgen -list
//
// With -dataset it writes gen.Load(dataset, scale, seed): -seed is an
// offset on the registry seed, as in experiments -seed, so by default
// it writes exactly the graph "dinfomap -dataset X -scale s" clusters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dinfomap"
	"dinfomap/internal/gen"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list built-in datasets and exit")
		dataset = flag.String("dataset", "", "built-in dataset name")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		kind    = flag.String("kind", "", "generator: powerlaw | ba | planted")
		n       = flag.Int("n", 10000, "vertex count")
		gamma   = flag.Float64("gamma", 2.2, "power-law exponent")
		dmin    = flag.Int("dmin", 2, "minimum expected degree (powerlaw)")
		dmax    = flag.Int("dmax", 0, "maximum expected degree (powerlaw; 0 = n/10)")
		baM     = flag.Int("m", 5, "edges per new vertex (ba)")
		comms   = flag.Int("comms", 50, "planted community count")
		avgDeg  = flag.Float64("avgdeg", 10, "planted average degree")
		mixing  = flag.Float64("mixing", 0.2, "planted mixing parameter mu")
		seed    = flag.Uint64("seed", 0, "random seed (with -dataset: offset added to the dataset's registry seed)")
		outPath = flag.String("o", "", "output file (default stdout)")
		truth   = flag.String("truth", "", "write planted ground truth here")
	)
	flag.Parse()

	if *list {
		for _, name := range dinfomap.Datasets() {
			d, _ := dinfomap.LookupDataset(name)
			fmt.Printf("%-14s %-7s %s\n", name, d.Class, d.Description)
		}
		return
	}

	var g *dinfomap.Graph
	var groundTruth []int
	switch {
	case *dataset != "":
		var err error
		g, groundTruth, err = gen.Load(*dataset, *scale, *seed)
		if err != nil {
			fatal(err)
		}
	case *kind == "powerlaw":
		mx := *dmax
		if mx <= 0 {
			mx = *n / 10
		}
		g = dinfomap.GeneratePowerLaw(*seed, *n, *gamma, *dmin, mx)
	case *kind == "ba":
		g = dinfomap.GenerateBarabasiAlbert(*seed, *n, *baM)
	case *kind == "planted":
		pg := dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
			N: *n, NumComms: *comms, AvgDegree: *avgDeg, Mixing: *mixing,
			DegreeGamma: *gamma,
		}, *seed)
		g, groundTruth = pg.Graph, pg.Truth
	default:
		fatal(fmt.Errorf("need -dataset, -kind, or -list"))
	}

	var w io.Writer = os.Stdout
	var out *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		out = f
		w = f
	}
	if err := dinfomap.WriteEdgeList(w, g); err != nil {
		fatal(err)
	}
	if out != nil {
		if err := out.Close(); err != nil {
			fatal(err)
		}
	}
	st := dinfomap.ComputeDegreeStats(g)
	fmt.Fprintf(os.Stderr, "generated %d vertices, %d edges, %s\n",
		g.NumVertices(), g.NumEdges(), st)

	if *truth != "" && groundTruth != nil {
		f, err := os.Create(*truth)
		if err != nil {
			fatal(err)
		}
		for u, c := range groundTruth {
			fmt.Fprintf(f, "%d %d\n", u, c)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
