package mpi

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allreduceGap is the busy compute gap before each allreduce of the
// latency benchmark.
const allreduceGap = 500 * time.Microsecond

// allreduceAfterGap is the latency benchmark's rank body: ops rounds of
// a busy gap followed by one AllreduceI64. Rank 0 prints the mean time
// per allreduce, gaps excluded.
func allreduceAfterGap(c *Comm, ops int) {
	var in time.Duration
	for i := 0; i < ops; i++ {
		for start := time.Now(); time.Since(start) < allreduceGap; {
		}
		start := time.Now()
		c.AllreduceI64(int64(i), OpSum)
		in += time.Since(start)
	}
	if c.Rank() == 0 {
		fmt.Printf("HELPER-ALLREDUCE-NS: %d\n", in.Nanoseconds()/int64(max(ops, 1)))
	}
}

// BenchmarkProcAllreduceAfterGap times AllreduceI64 between two real
// rank processes after a 500 µs busy gap on each, with the ranks' Go
// runtimes sized to one and to two cores. ns/op is the mean allreduce
// latency measured inside rank 0, so process start and mesh setup do
// not count. A runtime with more cores than its rank needs makes the
// thread that must wake a blocked rank wait behind compute threads;
// DESIGN.md records the numbers.
func BenchmarkProcAllreduceAfterGap(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			const size = 2
			dir := shortTempDir(b)
			env := []string{
				fmt.Sprintf("GOMAXPROCS=%d", procs),
				fmt.Sprintf("%s=%d", helperOpsEnv, b.N),
			}
			var out bytes.Buffer
			cmds := make([]*exec.Cmd, size)
			for r := range cmds {
				cmds[r] = helperCommand(exe, r, size, dir, env...)
				if r == 0 {
					cmds[r].Stdout = &out
				}
				cmds[r].Stderr = os.Stderr
				if err := cmds[r].Start(); err != nil {
					b.Fatalf("starting rank %d: %v", r, err)
				}
			}
			for r, cmd := range cmds {
				if err := cmd.Wait(); err != nil {
					b.Fatalf("rank %d: %v\n%s", r, err, out.String())
				}
			}
			_, v, ok := strings.Cut(out.String(), "HELPER-ALLREDUCE-NS: ")
			ns, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if !ok || err != nil {
				b.Fatalf("rank 0 reported no latency:\n%s", out.String())
			}
			b.ReportMetric(ns, "ns/op")
		})
	}
}
