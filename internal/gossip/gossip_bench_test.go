package gossip

import (
	"testing"

	"dinfomap/internal/gen"
)

func BenchmarkRun(b *testing.B) {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 3000, NumComms: 60, AvgDegree: 10, Mixing: 0.2,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Config{P: 4, Seed: 1})
	}
}
