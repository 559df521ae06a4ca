// Transport conformance suite: every scenario here runs against BOTH
// backends — the in-process goroutine transport and the multi-process
// proc transport (exercised in-process as one ProcTransport per rank
// goroutine over real unix sockets, so -race sees the full wire path).
// The suite pins the Transport contract: every collective, bit-identical
// reductions across backends, the kind-conservation invariant,
// synchronization-skew accounting, and clean poison propagation with the
// cause preserved.
package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// shortTempDir returns a freshly created short-pathed directory for
// unix sockets: t.TempDir can exceed the ~100-byte sun_path limit on
// deeply nested test names.
func shortTempDir(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "mpi")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// runProcWorld runs fn as an SPMD program over the proc backend, one
// ProcTransport per rank goroutine connected over unix sockets. It
// fails the test on any rank error and returns per-rank stats, making
// it signature-compatible with Run for the conformance table. A
// WithRecorder option records every rank into the one recorder (each
// rank appends only to its own slot), like Run does.
func runProcWorld(t *testing.T, size int, fn func(c *Comm), opts ...RunOpt) []Stats {
	t.Helper()
	stats, errs := runProcWorldErrs(t, size, fn, opts...)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return stats
}

// runProcWorldErrs is runProcWorld without the failure assertion, for
// tests that expect rank errors (poison propagation).
func runProcWorldErrs(t *testing.T, size int, fn func(c *Comm), opts ...RunOpt) ([]Stats, []error) {
	t.Helper()
	var bag World
	for _, opt := range opts {
		opt(&bag)
	}
	dir := shortTempDir(t)
	listeners, addrs, err := ListenRanks("unix", size, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	if bag.rec != nil {
		epoch = bag.rec.Epoch()
	}
	stats := make([]Stats, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := DialProc(ProcConfig{
				Rank: rank, Size: size,
				Listener: listeners[rank], Addrs: addrs, Network: "unix",
				Epoch: epoch,
			}, opts...)
			if err != nil {
				errs[rank] = err
				return
			}
			stats[rank], errs[rank] = RunRank(tr, bag.rec, fn)
		}(r)
	}
	wg.Wait()
	return stats, errs
}

// backendRunners lists both transports behind one runner signature.
func backendRunners() []struct {
	name string
	run  func(t *testing.T, size int, fn func(c *Comm), opts ...RunOpt) []Stats
} {
	return []struct {
		name string
		run  func(t *testing.T, size int, fn func(c *Comm), opts ...RunOpt) []Stats
	}{
		{"goroutine", func(t *testing.T, size int, fn func(c *Comm), opts ...RunOpt) []Stats {
			t.Helper()
			return Run(size, fn, opts...)
		}},
		{"proc", runProcWorld},
	}
}

func TestConformanceCollectives(t *testing.T) {
	const p = 4
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			b.run(t, p, func(c *Comm) {
				r := c.Rank()

				parts := c.AllgatherBytes([]byte(fmt.Sprintf("rank%d", r)))
				for i, part := range parts {
					if want := fmt.Sprintf("rank%d", i); string(part) != want {
						t.Errorf("allgather[%d] = %q, want %q", i, part, want)
					}
				}

				if got := c.AllreduceI64(int64(r+1), OpSum); got != 10 {
					t.Errorf("allreduce sum = %v, want 10", got)
				}
				if got := c.AllreduceI64(int64(r), OpMax); got != p-1 {
					t.Errorf("allreduce max = %v, want %d", got, p-1)
				}
				if got := c.AllreduceI64(int64(r), OpMin); got != 0 {
					t.Errorf("allreduce min = %v, want 0", got)
				}

				bufs := make([][]byte, p)
				for dst := range bufs {
					if dst != r {
						bufs[dst] = []byte{byte(r*10 + dst)}
					}
				}
				recv := c.Alltoallv(bufs)
				for src := 0; src < p; src++ {
					if src == r {
						continue
					}
					if len(recv[src]) != 1 || recv[src][0] != byte(src*10+r) {
						t.Errorf("alltoallv[%d] = %v", src, recv[src])
					}
				}
			}, WithTimeout(10*time.Second))
		})
	}
}

// TestConformanceReductionParity pins the cross-backend determinism
// contract: the same SPMD reduction produces bit-identical results on
// both transports. Float partials are gathered and summed in fixed rank
// order — the reduction the core applies to its gathered partials — so
// the result cannot depend on frame arrival order.
func TestConformanceReductionParity(t *testing.T) {
	const p = 4
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	results := map[string][]byte{}
	for _, b := range backendRunners() {
		var mu sync.Mutex
		var encoded []byte
		b.run(t, p, func(c *Comm) {
			r := c.Rank()
			e := NewEncoder(16)
			e.PutF64(math.Sqrt(float64(r)+0.1) * 1e-3)
			e.PutF64(math.Sqrt(float64(r)+0.1) * math.Pi)
			var vec [2]float64
			for _, part := range c.AllgatherBytes(e.Bytes()) {
				vec[0] += f64(part)
				vec[1] += f64(part[8:])
			}
			// What a rank receives from each source depends on both
			// ends; it is summed in source order.
			bufs := make([][]byte, p)
			for dst := range bufs {
				be := NewEncoder(8)
				be.PutF64(vec[0] * math.Sqrt(float64(1+r*p+dst)))
				bufs[dst] = be.Bytes()
			}
			var col float64
			for _, part := range c.Alltoallv(bufs) {
				col += f64(part)
			}
			max := c.AllreduceI64(int64(math.Float64bits(col)), OpMax)
			out := NewEncoder(32)
			out.PutF64(vec[0])
			out.PutF64(vec[1])
			out.PutF64(col)
			out.PutI64(max)
			if r == 0 {
				mu.Lock()
				encoded = append([]byte(nil), out.Bytes()...)
				mu.Unlock()
			}
		}, WithTimeout(10*time.Second))
		results[b.name] = encoded
	}
	if !bytes.Equal(results["goroutine"], results["proc"]) {
		t.Fatalf("reduction bytes differ across backends:\n goroutine %x\n proc      %x",
			results["goroutine"], results["proc"])
	}
}

// TestConformanceKindConservation drives collectives under several
// ambient kinds and asserts the per-kind buckets still sum to the
// totals on both backends.
func TestConformanceKindConservation(t *testing.T) {
	const p = 3
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			stats := b.run(t, p, func(c *Comm) {
				r := c.Rank()
				prev := c.SetKind(KindModuleInfo)
				bufs := make([][]byte, p)
				for dst := range bufs {
					if dst != r {
						bufs[dst] = []byte("info")
					}
				}
				c.Alltoallv(bufs)
				c.SetKind(KindGhostUpdate)
				c.AllreduceI64(int64(r), OpSum)
				c.SetKind(KindMergeShuffle)
				c.AllgatherBytes([]byte{byte(r)})
				c.SetKind(prev)
			}, WithTimeout(10*time.Second))
			for r, s := range stats {
				if !s.Conserved() {
					t.Errorf("rank %d: kind buckets do not sum to totals: %+v", r, s)
				}
				if s.ByKind[KindModuleInfo].MsgsSent != p-1 || s.ByKind[KindModuleInfo].MsgsRecv != p-1 {
					t.Errorf("rank %d: ModuleInfo msgs = %d/%d, want %d/%d",
						r, s.ByKind[KindModuleInfo].MsgsSent, s.ByKind[KindModuleInfo].MsgsRecv, p-1, p-1)
				}
				if s.ByKind[KindGhostUpdate].Collectives != 1 || s.ByKind[KindMergeShuffle].Collectives != 1 {
					t.Errorf("rank %d: ghost_update/merge_shuffle collectives = %d/%d, want 1/1",
						r, s.ByKind[KindGhostUpdate].Collectives, s.ByKind[KindMergeShuffle].Collectives)
				}
			}
		})
	}
}

// TestConformanceWaitStates pins wait accounting on both backends: a
// rank that reaches a collective late charges the arrival-to-release
// skew to the prompt rank, under the ambient kind of the collective,
// and barely any to itself. The proc backend's stamps share the
// launcher's epoch, so the same attribution must hold there.
func TestConformanceWaitStates(t *testing.T) {
	const lag = 30 * time.Millisecond
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			stats := b.run(t, 2, func(c *Comm) {
				c.SetKind(KindModulePartial)
				if c.Rank() == 0 {
					time.Sleep(lag) // late to the collective
				}
				c.AllreduceI64(1, OpSum)
			}, WithTimeout(10*time.Second))
			fast, slow := stats[1], stats[0]
			if fast.BarrierWaitNs < int64(lag/2) {
				t.Errorf("prompt rank BarrierWaitNs = %d, want >= %d", fast.BarrierWaitNs, int64(lag/2))
			}
			if slow.BarrierWaitNs >= fast.BarrierWaitNs {
				t.Errorf("late rank waited %dns, prompt rank %dns: skew charged to the wrong side",
					slow.BarrierWaitNs, fast.BarrierWaitNs)
			}
			if got := fast.ByKind[KindModulePartial].BarrierWaitNs; got != fast.BarrierWaitNs {
				t.Errorf("module_partial BarrierWaitNs = %d, want all %d", got, fast.BarrierWaitNs)
			}
			for r, s := range stats {
				if !s.Conserved() {
					t.Errorf("rank %d: wait counters broke conservation: %+v", r, s)
				}
			}
		})
	}
}

// TestConformanceBarrierSyncCounts pins the accounting parity that the
// CI diff job relies on: every backend bills a collective as exactly
// two synchronization points, so BarrierSyncs (a deterministic counter)
// must be identical across transports.
func TestConformanceBarrierSyncCounts(t *testing.T) {
	counts := map[string]int64{}
	for _, b := range backendRunners() {
		stats := b.run(t, 3, func(c *Comm) {
			c.AllgatherBytes([]byte{byte(c.Rank())})
			c.AllreduceI64(1, OpSum)
			c.Alltoallv(make([][]byte, 3))
		}, WithTimeout(10*time.Second))
		counts[b.name] = stats[0].BarrierSyncs
	}
	if counts["goroutine"] != counts["proc"] {
		t.Fatalf("BarrierSyncs differ: goroutine %d, proc %d", counts["goroutine"], counts["proc"])
	}
	if want := int64(2 * 3); counts["goroutine"] != want {
		t.Fatalf("BarrierSyncs = %d, want %d", counts["goroutine"], want)
	}
}

// TestProcPoisonPropagatesCause kills one rank (by panic) mid-exchange
// and asserts every other rank unwinds promptly with the originating
// cause threaded through — the in-process version of the fault
// injection test (proc_fault_test.go does it with real processes).
func TestProcPoisonPropagatesCause(t *testing.T) {
	const p = 4
	start := time.Now()
	_, errs := runProcWorldErrs(t, p, func(c *Comm) {
		if c.Rank() == 2 {
			panic("injected fault on rank 2")
		}
		for i := 0; ; i++ {
			c.AllreduceI64(int64(i), OpSum)
		}
	}, WithTimeout(30*time.Second))
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("poison took %v to unwind the world", elapsed)
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: no error out of a poisoned world", r)
		}
		if !strings.Contains(err.Error(), "injected fault on rank 2") {
			t.Errorf("rank %d: cause lost: %v", r, err)
		}
	}
}

// TestConformancePoisonDiagnostics pins the failure diagnostics on
// both backends: a rank blocked in a collective when the world is
// poisoned unwinds with the cause and the time it spent blocked — not a
// bare "world poisoned" message. On the proc backend the message also
// names the frame it waited for and summarizes the pending inbox: rank
// 2's allgather frame has arrived, rank 1's never will.
func TestConformancePoisonDiagnostics(t *testing.T) {
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			var msg string
			var mu sync.Mutex
			fn := func(c *Comm) {
				switch c.Rank() {
				case 0:
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							msg = fmt.Sprint(p)
							mu.Unlock()
							panic(p)
						}
					}()
					c.AllgatherBytes([]byte("r0")) // blocks on rank 1 forever
				case 1:
					time.Sleep(20 * time.Millisecond)
					panic("boom with context")
				default:
					c.AllgatherBytes([]byte("r2"))
				}
			}
			if b.name == "goroutine" {
				func() {
					defer func() { recover() }()
					Run(3, fn, WithTimeout(10*time.Second))
				}()
			} else {
				runProcWorldErrs(t, 3, fn, WithTimeout(10*time.Second))
			}
			mu.Lock()
			defer mu.Unlock()
			want := []string{"boom with context", "cause:", "world poisoned while waiting in "}
			if b.name == "proc" {
				want = append(want, fmt.Sprintf("Allgather(src=1, tag=%d)", tagGather), "1 pending:",
					fmt.Sprintf("(src=2 tag=%d 2B)", tagGather))
			}
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("poison panic %q missing %q", msg, w)
				}
			}
		})
	}
}

// TestConnectTimeoutBudget pins satellite 3: a peer that never comes up
// fails DialProc within the WithConnectTimeout budget, not the much
// longer deadlock window.
func TestConnectTimeoutBudget(t *testing.T) {
	dir := shortTempDir(t)
	listeners, addrs, err := ListenRanks("unix", 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range listeners {
		l.Close() // nobody will ever accept or dial
	}
	start := time.Now()
	_, err = DialProc(ProcConfig{
		Rank: 1, Size: 2, Listener: nil, Addrs: addrs, Network: "unix",
	}, WithConnectTimeout(200*time.Millisecond), WithTimeout(time.Hour))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("DialProc succeeded against a dead mesh")
	}
	if !strings.Contains(err.Error(), "connect timeout") {
		t.Fatalf("error = %v, want connect timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("DialProc took %v, want ~200ms budget", elapsed)
	}
}

// TestHandshakeRejectsMismatchedBuilds pins the handshake: two ranks
// built differently must fail the mesh, not silently run a mixed world.
func TestHandshakeRejectsMismatchedBuilds(t *testing.T) {
	dir := shortTempDir(t)
	listeners, addrs, err := ListenRanks("unix", 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	versions := []string{"build-A", "build-B"}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = DialProc(ProcConfig{
				Rank: rank, Size: 2,
				Listener: listeners[rank], Addrs: addrs, Network: "unix",
				Version: versions[rank],
			}, WithConnectTimeout(2*time.Second))
		}(r)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched builds formed a mesh")
	}
	combined := fmt.Sprint(errs[0], errs[1])
	if !strings.Contains(combined, "build mismatch") {
		t.Fatalf("errors = %v, want build mismatch", combined)
	}
}

// TestSendBuffersInvalidatedOnPoison pins satellite 2: a SendBuffers
// registered with the Comm is marked stale when the world fails, so a
// recovering caller cannot exchange the half-written round; Reset
// rearms it.
func TestSendBuffersInvalidatedOnPoison(t *testing.T) {
	var sb *SendBuffers
	var mu sync.Mutex
	func() {
		defer func() { recover() }()
		Run(2, func(c *Comm) {
			if c.Rank() == 0 {
				b := c.NewSendBuffers()
				b.Reset()
				b.For(1).PutInt(42) // half-written round
				mu.Lock()
				sb = b
				mu.Unlock()
				c.AllgatherBytes(nil) // blocks; poisoned by rank 1's panic
				return
			}
			panic("die mid-round")
		}, WithTimeout(10*time.Second))
	}()
	mu.Lock()
	defer mu.Unlock()
	if sb == nil {
		t.Fatal("rank 0 never registered its SendBuffers")
	}
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "world failed") {
				t.Errorf("stale For() panic = %v, want world-failed message", p)
			}
		}()
		sb.For(1)
	}()
	sb.Reset()
	sb.For(1).PutInt(7) // rearmed after Reset
	if got := sb.Bufs()[1]; len(got) != 8 {
		t.Errorf("post-Reset round has %d bytes, want 8", len(got))
	}
}

// TestProcTransportTelemetry checks the wire counters against each
// other: what rank 0 counts as sent to rank 1 must be exactly what
// rank 1 counts as received from rank 0, and the handshake wall time
// and peer table must be populated.
func TestProcTransportTelemetry(t *testing.T) {
	const size = 2
	dir := shortTempDir(t)
	listeners, addrs, err := ListenRanks("unix", size, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	stats := make([]*TransportStats, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := DialProc(ProcConfig{
				Rank: rank, Size: size,
				Listener: listeners[rank], Addrs: addrs, Network: "unix",
				Epoch: epoch,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			_, errs[rank] = RunRank(tr, nil, func(c *Comm) {
				bufs := make([][]byte, size)
				for i := 0; i < 20; i++ {
					bufs[1-c.Rank()] = bytes.Repeat([]byte{byte(i)}, 100+i)
					c.Alltoallv(bufs)
				}
			})
			stats[rank] = tr.Telemetry()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, ts := range stats {
		if ts.Network != "unix" {
			t.Errorf("rank %d network = %q", r, ts.Network)
		}
		if ts.HandshakeWallNs <= 0 {
			t.Errorf("rank %d handshake wall = %d, want > 0", r, ts.HandshakeWallNs)
		}
		if len(ts.Peers) != size {
			t.Fatalf("rank %d peer table has %d entries, want %d", r, len(ts.Peers), size)
		}
		if ts.PoisonsSent != 0 || ts.PoisonsRecv != 0 {
			t.Errorf("rank %d counted poisons (%d sent, %d recv) on a clean run", r, ts.PoisonsSent, ts.PoisonsRecv)
		}
	}
	// Conservation: sent(0→1) == recv(1←0) and vice versa, frames and
	// bytes alike. Finish's barrier traffic is included on both sides,
	// so the totals still balance.
	for r := 0; r < size; r++ {
		peer := 1 - r
		sent := stats[r].Peers[peer]
		recv := stats[peer].Peers[r]
		if sent.FramesSent == 0 {
			t.Fatalf("rank %d sent no frames to rank %d", r, peer)
		}
		if sent.FramesSent != recv.FramesRecv || sent.BytesSent != recv.BytesRecv {
			t.Errorf("conservation broken %d→%d: sent %d frames/%d bytes, peer received %d frames/%d bytes",
				r, peer, sent.FramesSent, sent.BytesSent, recv.FramesRecv, recv.BytesRecv)
		}
	}
}
