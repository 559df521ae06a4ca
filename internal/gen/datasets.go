package gen

import (
	"fmt"
	"sort"

	"dinfomap/internal/graph"
)

// Dataset describes one synthetic stand-in for a paper dataset (Table 1).
// Scale is reduced roughly 1000x relative to the paper so the full
// experiment suite runs in a single container; the degree-distribution
// shape (power-law exponent, hub share) and, where the paper's quality
// experiments need it, ground-truth community structure are preserved.
type Dataset struct {
	Name        string // paper dataset this stands in for
	Description string // description from Table 1
	Class       string // "small", "medium", or "large" per Section 4
	Kind        string // generator family: "planted", "ba", "chunglu", "rmat"
	Seed        uint64

	// Generator parameters (interpretation depends on Kind).
	N         int
	AvgDeg    float64
	Gamma     float64
	Mixing    float64
	NumComms  int
	SizeSkew  float64 // planted community-size skew (0 = default 0.3)
	MaxDegFr  float64 // planted max degree as fraction of N (0 = default)
	BAEdges   int
	RMATScale int
	RMATEdges int

	// DegreeSorted relabels vertices in descending-degree order, the
	// id-degree correlation real crawls and social dumps exhibit
	// (crawl order / account age). This is what exposes the 1D block
	// partitioning imbalance of Figures 6-7.
	DegreeSorted bool
}

// Generate materializes the dataset. truth is non-nil only for planted
// datasets (those used in ground-truth quality experiments).
func (d Dataset) Generate() (g *graph.Graph, truth []int) {
	g, truth = d.generate()
	if d.DegreeSorted {
		var perm []int
		g, perm = graph.RelabelByDegree(g)
		if truth != nil {
			relabeled := make([]int, len(truth))
			for old, c := range truth {
				relabeled[perm[old]] = c
			}
			truth = relabeled
		}
	}
	return g, truth
}

func (d Dataset) generate() (g *graph.Graph, truth []int) {
	switch d.Kind {
	case "planted":
		skew := d.SizeSkew
		//dinfomap:float-ok zero-value sentinel: unset config field selects the default
		if skew == 0 {
			skew = 0.3
		}
		return PlantedPartition(d.Seed, PlantedConfig{
			N:             d.N,
			NumComms:      d.NumComms,
			AvgDegree:     d.AvgDeg,
			Mixing:        d.Mixing,
			SizeSkew:      skew,
			DegreeGamma:   d.Gamma,
			MaxDegreeFrac: d.MaxDegFr,
		})
	case "ba":
		return BarabasiAlbert(d.Seed, d.N, d.BAEdges), nil
	case "chunglu":
		dmin := int(d.AvgDeg / 2)
		if dmin < 1 {
			dmin = 1
		}
		return PowerLawGraph(d.Seed, d.N, d.Gamma, dmin, d.N/10), nil
	case "rmat":
		return RMAT(d.Seed, d.RMATScale, d.RMATEdges, 0.57, 0.19, 0.19), nil
	default:
		panic(fmt.Sprintf("gen: unknown dataset kind %q", d.Kind))
	}
}

// Registry maps paper dataset names (lower-cased) to their stand-ins.
// Vertex/edge counts below are ~1/1000 of Table 1 with the same ordering
// of sizes: Amazon < DBLP < ND-Web < YouTube < LiveJournal < UK-2005 <
// WebBase-2001 < Friendster < UK-2007 by edge count.
var Registry = map[string]Dataset{
	"amazon": {
		Name: "Amazon", Class: "small", Kind: "planted", Seed: 101,
		Description: "Frequently co-purchased products (planted communities)",
		N:           3300, NumComms: 120, AvgDeg: 5.6, Mixing: 0.25, Gamma: 2.8,
	},
	"dblp": {
		Name: "DBLP", Class: "small", Kind: "planted", Seed: 102,
		Description: "Co-authorship network (planted communities)",
		N:           3100, NumComms: 100, AvgDeg: 6.7, Mixing: 0.3, Gamma: 2.6,
	},
	"ndweb": {
		Name: "ND-Web", Class: "small", Kind: "rmat", Seed: 103,
		Description: "Web network of University of Notre Dame (RMAT)",
		RMATScale:   12, RMATEdges: 15000,
		DegreeSorted: true,
	},
	"youtube": {
		Name: "YouTube", Class: "medium", Kind: "planted", Seed: 104,
		Description: "YouTube friendship network (power-law planted communities)",
		N:           22000, NumComms: 280, AvgDeg: 5.3, Mixing: 0.25, Gamma: 2.2,
		SizeSkew: 0.4, MaxDegFr: 0.05,
		DegreeSorted: true,
	},
	"livejournal": {
		Name: "LiveJournal", Class: "medium", Kind: "planted", Seed: 105,
		Description: "Virtual-community social site (power-law planted communities)",
		N:           10000, NumComms: 150, AvgDeg: 15, Mixing: 0.3, Gamma: 2.3,
		SizeSkew: 0.4, MaxDegFr: 0.05,
		DegreeSorted: true,
	},
	"uk-2005": {
		Name: "UK-2005", Class: "large", Kind: "planted", Seed: 106,
		Description: ".uk web crawl 2005 (dense hubs, power-law planted communities)",
		N:           39000, NumComms: 400, AvgDeg: 24, Mixing: 0.12, Gamma: 1.9,
		SizeSkew: 0.5, MaxDegFr: 0.08,
		DegreeSorted: true,
	},
	"webbase-2001": {
		Name: "WebBase-2001", Class: "large", Kind: "planted", Seed: 107,
		Description: "WebBase crawl graph (power-law planted communities)",
		N:           118000, NumComms: 1200, AvgDeg: 17, Mixing: 0.12, Gamma: 2.1,
		SizeSkew: 0.5, MaxDegFr: 0.04,
		DegreeSorted: true,
	},
	"friendster": {
		Name: "Friendster", Class: "large", Kind: "planted", Seed: 108,
		Description: "On-line gaming network (power-law planted communities)",
		N:           65000, NumComms: 500, AvgDeg: 28, Mixing: 0.3, Gamma: 2.2,
		SizeSkew: 0.4, MaxDegFr: 0.04,
		DegreeSorted: true,
	},
	"uk-2007": {
		Name: "UK-2007", Class: "large", Kind: "planted", Seed: 109,
		Description: ".uk web crawl 2007 (largest; power-law planted communities)",
		N:           105000, NumComms: 900, AvgDeg: 36, Mixing: 0.1, Gamma: 1.9,
		SizeSkew: 0.5, MaxDegFr: 0.06,
		DegreeSorted: true,
	},
}

// Names returns registry keys in deterministic (sorted) order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns a dataset by (case-sensitive lower) name.
func Lookup(name string) (Dataset, error) {
	d, ok := Registry[name]
	if !ok {
		return Dataset{}, fmt.Errorf("gen: unknown dataset %q (known: %v)", name, Names())
	}
	return d, nil
}

// Load generates the named stand-in at the given scale, with
// seedOffset added to its registry seed. It is the one "dataset at
// scale" rule every tool shares: scale 1 and offset 0 give exactly
// Lookup(name).Generate(). Other scales multiply the vertex, edge and
// community counts (each floored at 16) and, for RMAT stand-ins below
// scale 0.6, shrink the vertex space about log2-proportionally. truth
// is non-nil only for planted datasets.
func Load(name string, scale float64, seedOffset uint64) (g *graph.Graph, truth []int, err error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	//dinfomap:float-ok sentinel: 1 is the literal "no scaling" default
	if scale != 1 {
		d.N = scaleInt(d.N, scale)
		d.RMATEdges = scaleInt(d.RMATEdges, scale)
		if d.RMATScale > 0 && scale < 1 {
			for s := scale; s < 0.6 && d.RMATScale > 8; s *= 2 {
				d.RMATScale--
			}
		}
		if d.NumComms > 0 {
			d.NumComms = scaleInt(d.NumComms, scale)
		}
	}
	d.Seed += seedOffset
	g, truth = d.Generate()
	return g, truth, nil
}

func scaleInt(v int, s float64) int {
	return max(16, int(float64(v)*s))
}
