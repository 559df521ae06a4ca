package benchsuite

import "testing"

// BenchmarkSuite runs every Suite entry as a sub-benchmark:
//
//	go test -bench Suite -benchmem ./internal/benchsuite
func BenchmarkSuite(b *testing.B) {
	for _, bench := range Suite() {
		b.Run(bench.Name, bench.F)
	}
}
