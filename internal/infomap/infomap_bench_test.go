package infomap

import (
	"fmt"
	"testing"

	"dinfomap/internal/gen"
)

func BenchmarkRun(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
				N: n, NumComms: n / 50, AvgDegree: 10, Mixing: 0.2,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(g, Config{Seed: 1})
			}
		})
	}
}

func BenchmarkCodelengthOf(b *testing.B) {
	g, truth := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 5000, NumComms: 100, AvgDegree: 10, Mixing: 0.2,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CodelengthOf(g, truth)
	}
}
