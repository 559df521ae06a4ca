package mpi

import (
	"fmt"
	"testing"
)

func BenchmarkAlltoallv(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			const p = 4
			Run(p, func(c *Comm) {
				bufs := make([][]byte, p)
				for i := range bufs {
					bufs[i] = make([]byte, size)
				}
				for i := 0; i < b.N; i++ {
					c.Alltoallv(bufs)
				}
			})
		})
	}
}

func BenchmarkEncoderDecoder(b *testing.B) {
	b.ReportAllocs()
	e := NewEncoder(4096)
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j := 0; j < 64; j++ {
			e.PutInt(j)
			e.PutF64(float64(j) * 1.5)
		}
		d := NewDecoder(e.Bytes())
		for d.Remaining() > 0 {
			_ = d.Int()
			_ = d.F64()
		}
	}
}
