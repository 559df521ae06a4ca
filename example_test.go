package dinfomap_test

// Godoc examples: runnable documentation for the main public entry
// points. These also serve as compile-and-output-checked smoke tests.

import (
	"fmt"

	"dinfomap"
)

func ExampleRunSequential() {
	// Two triangles joined by a bridge: the canonical two-community graph.
	g := dinfomap.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{2, 3},
	})
	res := dinfomap.RunSequential(g, dinfomap.SequentialConfig{Seed: 1})
	fmt.Println("modules:", res.NumModules)
	fmt.Println("same community:", res.Communities[0] == res.Communities[1])
	// Output:
	// modules: 2
	// same community: true
}

func ExampleRunDistributed() {
	g := dinfomap.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{2, 3},
	})
	res := dinfomap.RunDistributed(g, dinfomap.DistributedConfig{P: 2, Seed: 1})
	fmt.Println("modules:", res.NumModules)
	fmt.Println("triangles separated:", res.Communities[0] != res.Communities[3])
	// Output:
	// modules: 2
	// triangles separated: true
}

func ExampleGeneratePlanted() {
	pg := dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
		N: 300, NumComms: 6, AvgDegree: 8, Mixing: 0.1,
	}, 42)
	res := dinfomap.RunSequential(pg.Graph, dinfomap.SequentialConfig{Seed: 1})
	fmt.Println("recovered planted communities:", dinfomap.NMI(res.Communities, pg.Truth) > 0.9)
	// Output:
	// recovered planted communities: true
}

func ExampleComparePartitions() {
	a := []int{0, 0, 1, 1}
	b := []int{5, 5, 9, 9} // identical up to labels
	fmt.Println(dinfomap.ComparePartitions(a, b))
	// Output:
	// NMI=1.00 F=1.00 JI=1.00
}

func ExampleAnalyzeDelegate() {
	// A star: the hub makes block-1D partitioning lopsided, while
	// delegate partitioning splits the hub's edges across ranks.
	bld := dinfomap.NewBuilder(33)
	for v := 1; v <= 32; v++ {
		bld.AddEdge(0, v)
	}
	g := bld.Build()
	oneD := dinfomap.Analyze1D(g, 4)
	del := dinfomap.AnalyzeDelegate(g, 4)
	fmt.Println("1D balanced:", oneD.MaxEdges-oneD.MinEdges <= 2)
	fmt.Println("delegate balanced:", del.MaxEdges-del.MinEdges <= 2)
	// Output:
	// 1D balanced: false
	// delegate balanced: true
}
