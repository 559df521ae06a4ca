package relax

import (
	"fmt"
	"testing"

	"dinfomap/internal/gen"
)

func BenchmarkRunWorkers(b *testing.B) {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 5000, NumComms: 100, AvgDegree: 10, Mixing: 0.2,
	})
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(g, Config{Workers: w, Seed: 1})
			}
		})
	}
}
