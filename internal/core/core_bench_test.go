package core

import (
	"fmt"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/mpi"
)

// The end-to-end benchmarks run one fixed seed: every iteration does the
// same work, so ns/op and allocs/op do not depend on how far b.N got.

func BenchmarkRunByP(b *testing.B) {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 3000, NumComms: 60, AvgDegree: 10, Mixing: 0.2,
	})
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(g, Config{P: p, Seed: 1})
			}
		})
	}
}

// BenchmarkRunHubHeavy exercises the delegate machinery specifically.
func BenchmarkRunHubHeavy(b *testing.B) {
	g := gen.PowerLawGraph(7, 5000, 1.9, 2, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Config{P: 8, Seed: 1})
	}
}

// BenchmarkSweepPass times one steady-state FindBestModule pass: the
// level is converged first, so every timed pass runs the full scan and
// ΔL evaluation without applying moves.
func BenchmarkSweepPass(b *testing.B) {
	h := NewBenchLevel(plantedAllocGraph(), 7)
	for h.SweepPass() > 0 {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SweepPass()
	}
}

// BenchmarkCodecModuleInfo times one Module_Info wire round: 1024
// records (one third short-form) encoded into a warm encoder and
// decoded back.
func BenchmarkCodecModuleInfo(b *testing.B) {
	recs := make([]ModuleInfo, 1024)
	for i := range recs {
		recs[i] = ModuleInfo{
			ModID:      i * 7,
			SumPr:      float64(i) * 1e-4,
			ExitPr:     float64(i) * 1e-5,
			NumMembers: i%97 + 1,
			IsSent:     i%3 == 0,
		}
	}
	e := mpi.NewEncoder(1 << 16)
	d := mpi.NewDecoder(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := codecRound(e, d, recs); got != len(recs) {
			b.Fatalf("decoded %d records, want %d", got, len(recs))
		}
	}
}
