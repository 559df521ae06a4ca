package gen

import (
	"math"

	"dinfomap/internal/graph"
)

// PlantedConfig parameterizes a planted-partition (LFR-style) graph:
// communities of heterogeneous sizes with dense intra-community and
// sparse inter-community connectivity, plus optional power-law degrees.
type PlantedConfig struct {
	N             int     // number of vertices
	NumComms      int     // number of planted communities
	AvgDegree     float64 // target average degree
	Mixing        float64 // mu: fraction of each vertex's edges leaving its community
	SizeSkew      float64 // 0 = equal community sizes; 1 = strongly skewed (power-law-ish)
	DegreeGamma   float64 // power-law exponent for desired degrees; <= 0 means uniform degrees
	MaxDegreeFrac float64 // max degree as a fraction of N (default 0.1)
}

// PlantedPartition generates a graph with ground-truth communities.
// Returns the graph and truth[u] = planted community of u.
//
// This generator plays the role of the paper's Amazon/DBLP datasets with
// ground-truth communities (Yang & Leskovec), enabling the NMI/F-measure/
// Jaccard quality comparison of Table 2.
func PlantedPartition(seed uint64, cfg PlantedConfig) (*graph.Graph, []int) {
	r := NewRNG(seed)
	n := cfg.N
	k := cfg.NumComms
	if k < 1 {
		k = 1
	}
	if n < k {
		n = k
	}
	maxDeg := int(cfg.MaxDegreeFrac * float64(n))
	if maxDeg < 3 {
		maxDeg = max(3, n/10)
	}

	// Community sizes: base share plus skew.
	sizes := communitySizes(r, n, k, cfg.SizeSkew)

	truth := make([]int, n)
	u := 0
	for c := 0; c < k; c++ {
		for i := 0; i < sizes[c]; i++ {
			truth[u] = c
			u++
		}
	}

	// Desired degrees.
	degs := make([]int, n)
	if cfg.DegreeGamma > 0 {
		dmin := maxInt(1, int(cfg.AvgDegree/3))
		raw := PowerLawDegrees(r, n, cfg.DegreeGamma, dmin, maxDeg)
		// Rescale to hit the average degree approximately.
		sum := 0
		for _, d := range raw {
			sum += d
		}
		target := cfg.AvgDegree * float64(n)
		scale := target / float64(sum)
		for i, d := range raw {
			v := int(float64(d) * scale)
			if v < 1 {
				v = 1
			}
			degs[i] = v
		}
	} else {
		for i := range degs {
			degs[i] = int(cfg.AvgDegree)
			if cfg.AvgDegree > float64(int(cfg.AvgDegree)) && r.Float64() < cfg.AvgDegree-float64(int(cfg.AvgDegree)) {
				degs[i]++
			}
			if degs[i] < 1 {
				degs[i] = 1
			}
		}
	}

	// Split each vertex's stubs into intra and inter parts by mu.
	mu := cfg.Mixing
	if mu < 0 {
		mu = 0
	}
	if mu > 1 {
		mu = 1
	}
	intraOf := func(v int) int { return int(float64(degs[v])*(1-mu) + 0.5) }
	intraLen := make([]int, k)
	stubs, interLen := 0, 0
	for v := 0; v < n; v++ {
		intra := intraOf(v)
		intraLen[truth[v]] += intra
		interLen += degs[v] - intra
		stubs += degs[v]
	}
	intraStubs := make([][]int, k) // per community: repeated vertex list
	for c := range intraStubs {
		intraStubs[c] = make([]int, 0, intraLen[c])
	}
	interStubs := make([]int, 0, interLen)
	for v := 0; v < n; v++ {
		intra := intraOf(v)
		inter := degs[v] - intra
		c := truth[v]
		for i := 0; i < intra; i++ {
			intraStubs[c] = append(intraStubs[c], v)
		}
		for i := 0; i < inter; i++ {
			interStubs = append(interStubs, v)
		}
	}
	// Every edge pairs two stubs.
	b := graph.NewBuilder(n)
	b.Grow(stubs / 2)
	// Pair intra stubs within each community (configuration model).
	for c := 0; c < k; c++ {
		pairStubs(r, intraStubs[c], b, nil)
	}
	// Pair inter stubs globally, rejecting same-community pairs where
	// possible.
	pairStubs(r, interStubs, b, truth)
	return b.Build(), truth
}

// pairStubs shuffles stubs and pairs them up into edges. When truth is
// non-nil, pairs within the same community are retried a few times to keep
// the mixing parameter honest; leftover conflicting pairs are dropped.
func pairStubs(r *RNG, stubs []int, b *graph.Builder, truth []int) {
	r.Shuffle(stubs)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue // drop self-loop
		}
		if truth != nil && truth[u] == truth[v] {
			// Try to swap v with a later stub from a different community.
			swapped := false
			for attempt := 0; attempt < 8; attempt++ {
				j := i + 2 + r.Intn(maxInt(1, len(stubs)-i-2))
				if j < len(stubs) && truth[stubs[j]] != truth[u] && stubs[j] != u {
					stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
					v = stubs[i+1]
					swapped = true
					break
				}
			}
			if !swapped {
				continue // drop rather than violate mixing badly
			}
		}
		b.AddEdge(u, v)
	}
}

func communitySizes(r *RNG, n, k int, skew float64) []int {
	sizes := make([]int, k)
	if skew <= 0 {
		base := n / k
		rem := n - base*k
		for c := range sizes {
			sizes[c] = base
			if c < rem {
				sizes[c]++
			}
		}
		return sizes
	}
	// Skewed: weight community c by (c+1)^(-skew*2) normalized.
	ws := make([]float64, k)
	total := 0.0
	for c := range ws {
		ws[c] = 1.0 / math.Pow(float64(c+1), skew*2)
		total += ws[c]
	}
	assigned := 0
	for c := range sizes {
		sizes[c] = int(float64(n) * ws[c] / total)
		if sizes[c] < 1 {
			sizes[c] = 1
		}
		assigned += sizes[c]
	}
	// Fix rounding drift on the largest community.
	sizes[0] += n - assigned
	if sizes[0] < 1 {
		sizes[0] = 1
	}
	return sizes
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max(a, b int) int { return maxInt(a, b) }
