package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"dinfomap/internal/graph"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	p := NewRNG(5).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPowerLawDegreesBounds(t *testing.T) {
	r := NewRNG(9)
	degs := PowerLawDegrees(r, 5000, 2.5, 2, 100)
	for _, d := range degs {
		if d < 2 || d > 100 {
			t.Fatalf("degree %d out of [2,100]", d)
		}
	}
	// Power law: most mass near dmin.
	low := 0
	for _, d := range degs {
		if d <= 4 {
			low++
		}
	}
	if float64(low)/float64(len(degs)) < 0.5 {
		t.Errorf("only %d/%d degrees <= 4; expected majority near dmin", low, len(degs))
	}
}

func TestChungLuShape(t *testing.T) {
	g := PowerLawGraph(11, 5000, 2.1, 2, 500)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeDegreeStats(g)
	if st.Max < 20 {
		t.Errorf("max degree %d too small; expected hubs", st.Max)
	}
	if st.HubFrac < 0.05 {
		t.Errorf("hub arc share %.2f too small for a scale-free graph", st.HubFrac)
	}
	if g.NumEdges() < 1000 {
		t.Errorf("only %d edges; generator too sparse", g.NumEdges())
	}
}

func TestChungLuEmptyWeights(t *testing.T) {
	g := ChungLu(NewRNG(1), []float64{0, 0, 0})
	if g.NumEdges() != 0 || g.NumVertices() != 3 {
		t.Fatalf("n=%d m=%d, want 3/0", g.NumVertices(), g.NumEdges())
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(13, 2000, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("n = %d, want 2000", g.NumVertices())
	}
	// Every non-seed vertex attaches m=3 edges, so m >= 3*(n-m-1).
	if g.NumEdges() < 3*(2000-4) {
		t.Errorf("edges = %d, want >= %d", g.NumEdges(), 3*(2000-4))
	}
	// Connected by construction.
	_, comps := graph.ConnectedComponents(g)
	if comps != 1 {
		t.Errorf("components = %d, want 1", comps)
	}
	st := graph.ComputeDegreeStats(g)
	if st.Max < 30 {
		t.Errorf("max degree %d; preferential attachment should create hubs", st.Max)
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(17, 10, 8000, 0.57, 0.19, 0.19)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d, want 1024", g.NumVertices())
	}
	st := graph.ComputeDegreeStats(g)
	if st.GiniCoeff < 0.3 {
		t.Errorf("gini = %.2f; RMAT should be skewed", st.GiniCoeff)
	}
}

func TestPlantedPartitionGroundTruth(t *testing.T) {
	g, truth := PlantedPartition(19, PlantedConfig{
		N: 2000, NumComms: 40, AvgDegree: 8, Mixing: 0.2, DegreeGamma: 2.5,
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(truth) != g.NumVertices() {
		t.Fatalf("truth has %d entries for %d vertices", len(truth), g.NumVertices())
	}
	// Every community id in [0, 40); every community non-empty.
	seen := make([]int, 40)
	for _, c := range truth {
		if c < 0 || c >= 40 {
			t.Fatalf("community id %d out of range", c)
		}
		seen[c]++
	}
	for c, cnt := range seen {
		if cnt == 0 {
			t.Errorf("community %d empty", c)
		}
	}
	// Mixing honored: intra-community edges dominate.
	intra, inter := 0, 0
	g.Edges(func(u, v int, _ float64) {
		if truth[u] == truth[v] {
			intra++
		} else {
			inter++
		}
	})
	frac := float64(inter) / float64(intra+inter)
	if frac > 0.35 {
		t.Errorf("inter-community edge fraction %.2f, want near mixing 0.2", frac)
	}
	if intra+inter < 2000 {
		t.Errorf("graph too sparse: %d edges", intra+inter)
	}
}

func TestPlantedPartitionZeroMixingIsolatesCommunities(t *testing.T) {
	g, truth := PlantedPartition(23, PlantedConfig{
		N: 500, NumComms: 10, AvgDegree: 6, Mixing: 0,
	})
	g.Edges(func(u, v int, _ float64) {
		if truth[u] != truth[v] {
			t.Fatalf("edge (%d,%d) crosses communities with mixing 0", u, v)
		}
	})
}

func TestDatasetRegistry(t *testing.T) {
	if len(Registry) != 9 {
		t.Fatalf("registry has %d datasets, want 9 (Table 1)", len(Registry))
	}
	for _, name := range Names() {
		d := Registry[name]
		if d.Name == "" || d.Class == "" || d.Kind == "" {
			t.Errorf("dataset %q incompletely specified: %+v", name, d)
		}
	}
	if _, err := Lookup("amazon"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestDatasetGenerateSmall(t *testing.T) {
	for _, name := range []string{"amazon", "dblp", "ndweb"} {
		d := Registry[name]
		g, truth := d.Generate()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if d.Kind == "planted" && truth == nil {
			t.Errorf("%s: planted dataset without truth", name)
		}
	}
}

// Property: generation is deterministic for a given seed.
func TestPropertyGenerationDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		g1 := BarabasiAlbert(seed, 200, 2)
		g2 := BarabasiAlbert(seed, 200, 2)
		if g1.NumEdges() != g2.NumEdges() {
			return false
		}
		equal := true
		g1.Edges(func(u, v int, w float64) {
			if g2.EdgeWeight(u, v) != w {
				equal = false
			}
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: geometric sampler returns non-negative skips and respects
// degenerate probabilities.
func TestPropertyGeometric(t *testing.T) {
	f := func(seed uint64, pRaw uint16) bool {
		r := NewRNG(seed)
		p := float64(pRaw) / 65536.0
		g := r.Geometric(p)
		if g < 0 {
			return false
		}
		if p >= 1 && r.Geometric(1.5) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if NewRNG(1).Geometric(0) != math.MaxInt32 {
		t.Error("Geometric(0) should be effectively infinite")
	}
}

// edgeHash digests g's vertex count and edge list, weights included.
func edgeHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.NumVertices()))
	g.Edges(func(u, v int, w float64) {
		put(uint64(u))
		put(uint64(v))
		put(math.Float64bits(w))
	})
	return h.Sum64()
}

// TestLoadPinsRegistryGraphs pins the one "dataset at scale" rule: at
// scale 1 with no seed offset, Load builds exactly the registry graph
// (the benchmark inputs and the default CLI graphs), and each rule
// where it differs from plain multiplication shows in its own row.
func TestLoadPinsRegistryGraphs(t *testing.T) {
	type row struct {
		name   string
		scale  float64
		offset uint64
		want   func(d *Dataset) // edits the registry entry into the expected one
	}
	var rows []row
	for _, name := range Names() {
		rows = append(rows, row{name: name, scale: 1, want: func(*Dataset) {}})
	}
	rows = append(rows,
		// RMAT stand-ins below scale 0.6 also lose a vertex-space bit.
		row{"ndweb", 0.3, 0, func(d *Dataset) { d.RMATEdges, d.RMATScale = 4500, 11 }},
		// Community counts floor at 16, not at 2 (int(120*0.1) = 12).
		row{"amazon", 0.1, 0, func(d *Dataset) { d.N, d.NumComms = 330, 16 }},
		// The seed offset adds to the registry seed.
		row{"amazon", 0.3, 5, func(d *Dataset) { d.N, d.NumComms, d.Seed = 990, 36, 106 }},
	)
	for _, r := range rows {
		g, truth, err := Load(r.name, r.scale, r.offset)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := Lookup(r.name)
		r.want(&d)
		wantG, wantTruth := d.Generate()
		if edgeHash(g) != edgeHash(wantG) {
			t.Errorf("Load(%q, %v, %d) differs from %+v.Generate()", r.name, r.scale, r.offset, d)
		}
		if (truth == nil) != (wantTruth == nil) || len(truth) != len(wantTruth) {
			t.Errorf("Load(%q, %v, %d): ground truth of %d vertices, want %d", r.name, r.scale, r.offset, len(truth), len(wantTruth))
		}
	}
	if _, _, err := Load("nope", 1, 0); err == nil {
		t.Error(`Load("nope") succeeded`)
	}
}

// TestDatasetFingerprints pins the SHA-256 of every registry dataset's
// edge list at scale 0.3, as WriteEdgeList writes it: every tool that
// builds a graph from a dataset name builds exactly this one, and a
// change to a generator, Build, RelabelByDegree or the writer that
// moves one byte shows here.
func TestDatasetFingerprints(t *testing.T) {
	want := map[string]string{
		"amazon":       "309ef8a71a284a2ac04c172a72812bd2ad2181b4bfaad2faec442eb34c8d35da",
		"dblp":         "9b252073a39dd50d524c375c07e4310178aceaeab95dfc303ac8bbbd72aa48a4",
		"friendster":   "4c82d22abc166a3ff5baea7af4de27a9b00117d4cd0a648b3e91e22398c1674d",
		"livejournal":  "35736b3269b022656a4a8b174ea81ddcbacd5107937b5e06e3dff9000ad8e245",
		"ndweb":        "19d55761478f69706ffe8ce9977167e507d4bbe50e9dcacffd989de4841dfd79",
		"uk-2005":      "ede948ec321b703db3701cb6b6f720886f42e1e412ca77c27fb22e587f17bcd8",
		"uk-2007":      "b8eb8340641e2c071e234861da260751f99bb3d67fc54584258f72384dcd3126",
		"webbase-2001": "4445b5eed34ef401653d886c74eeb485ab7b33b51f4a9427018908492aef9f7d",
		"youtube":      "7f34fadb4ed1fb1094d0754f04e8fec2181660717e84eaccbb07dd5c82fe547d",
	}
	if len(want) != len(Registry) {
		t.Fatalf("%d fingerprints for %d registry datasets", len(want), len(Registry))
	}
	for _, name := range Names() {
		g, _, err := Load(name, 0.3, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := graph.WriteEdgeList(h, g); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
			t.Errorf("%s at scale 0.3: edge list SHA-256 %s, want %s", name, got, want[name])
		}
	}
}

// BenchmarkGenerate times the uk-2007 stand-in at scale 0.3: the
// planted generator, its Build and the degree relabelling.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load("uk-2007", 0.3, 0); err != nil {
			b.Fatal(err)
		}
	}
}
