// Transport conformance suite: every scenario here runs against BOTH
// backends — the in-process goroutine transport and the multi-process
// proc transport (exercised in-process as one ProcTransport per rank
// goroutine over real unix sockets, so -race sees the full wire path).
// The suite pins the Transport contract: p2p ordering and tag matching,
// every collective, bit-identical reductions across backends, the
// kind-conservation invariant, wait-state classification, and clean
// poison propagation with the cause preserved.
package mpi

import (
	"bytes"
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
// it signature-compatible with Run for the conformance table.
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
	dir := shortTempDir(t)
	listeners, addrs, err := ListenRanks("unix", size, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
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
			stats[rank], errs[rank] = RunRank(tr, nil, fn)
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

func TestConformanceP2POrdering(t *testing.T) {
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			b.run(t, 2, func(c *Comm) {
				const n = 50
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						c.Send(1, 7, []byte{byte(i)})
					}
					return
				}
				for i := 0; i < n; i++ {
					data, from := c.Recv(0, 7)
					if from != 0 || len(data) != 1 || data[0] != byte(i) {
						t.Errorf("message %d: got %v from %d", i, data, from)
					}
				}
			}, WithTimeout(10*time.Second))
		})
	}
}

func TestConformanceTagMatching(t *testing.T) {
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			b.run(t, 2, func(c *Comm) {
				if c.Rank() == 0 {
					c.Send(1, 1, []byte("one"))
					c.Send(1, 2, []byte("two"))
					c.Send(1, 3, []byte("three"))
					return
				}
				// Ask out of send order: matching is by tag, not arrival.
				three, _ := c.Recv(0, 3)
				one, _ := c.Recv(0, 1)
				two, _ := c.Recv(0, 2)
				if string(one) != "one" || string(two) != "two" || string(three) != "three" {
					t.Errorf("tag matching broke: %q %q %q", one, two, three)
				}
			}, WithTimeout(10*time.Second))
		})
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

				var payload []byte
				if r == 2 {
					payload = []byte("broadcast")
				}
				if got := c.BcastBytes(2, payload); string(got) != "broadcast" {
					t.Errorf("bcast = %q", got)
				}

				if got := c.AllreduceF64(float64(r+1), OpSum); got != 10 {
					t.Errorf("allreduce sum = %v, want 10", got)
				}
				if got := c.AllreduceF64(float64(r), OpMax); got != p-1 {
					t.Errorf("allreduce max = %v, want %d", got, p-1)
				}
				if got := c.AllreduceI64(int64(r), OpMin); got != 0 {
					t.Errorf("allreduce min = %v, want 0", got)
				}

				vec := c.AllreduceSumF64s([]float64{float64(r), 1})
				if vec[0] != 6 || vec[1] != p {
					t.Errorf("sumf64s = %v", vec)
				}

				ml := c.AllreduceMinLoc(float64((r+2)%p) + 0.5)
				if ml.Rank != p-2 || ml.Value != 0.5 {
					t.Errorf("minloc = %+v", ml)
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

				c.Barrier()
			}, WithTimeout(10*time.Second))
		})
	}
}

// TestConformanceReductionParity pins the cross-backend determinism
// contract: the same SPMD reduction produces bit-identical results on
// both transports (fixed rank-order summation, independent of message
// arrival order).
func TestConformanceReductionParity(t *testing.T) {
	const p = 4
	results := map[string][]byte{}
	for _, b := range backendRunners() {
		var mu sync.Mutex
		var encoded []byte
		b.run(t, p, func(c *Comm) {
			acc := c.AllreduceF64(math.Sqrt(float64(c.Rank())+0.1)*1e-3, OpSum)
			vec := c.AllreduceSumF64s([]float64{acc, acc * math.Pi})
			e := NewEncoder(32)
			e.PutF64(acc)
			e.PutF64(vec[0])
			e.PutF64(vec[1])
			if c.Rank() == 0 {
				mu.Lock()
				encoded = append([]byte(nil), e.Bytes()...)
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

// TestConformanceKindConservation drives mixed kinded traffic and
// asserts the per-kind buckets still sum to the totals on both
// backends.
func TestConformanceKindConservation(t *testing.T) {
	const p = 3
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			stats := b.run(t, p, func(c *Comm) {
				r := c.Rank()
				prev := c.SetKind(KindGhostUpdate)
				c.Send((r+1)%p, TagFor(KindModuleInfo, 5), []byte("info"))
				c.Recv((r+p-1)%p, TagFor(KindModuleInfo, 5))
				c.AllreduceF64(float64(r), OpSum)
				c.SetKind(KindMergeShuffle)
				c.Barrier()
				c.SetKind(prev)
			}, WithTimeout(10*time.Second))
			for r, s := range stats {
				if !s.Conserved() {
					t.Errorf("rank %d: kind buckets do not sum to totals: %+v", r, s)
				}
				if s.ByKind[KindModuleInfo].MsgsSent != 1 || s.ByKind[KindModuleInfo].MsgsRecv != 1 {
					t.Errorf("rank %d: ModuleInfo msgs = %d/%d, want 1/1",
						r, s.ByKind[KindModuleInfo].MsgsSent, s.ByKind[KindModuleInfo].MsgsRecv)
				}
			}
		})
	}
}

// TestConformanceWaitStates pins wait-state classification on both
// backends: a late sender charges blocked wait, an early sender whose
// receiver dawdles charges queue residency. The proc backend's send
// stamps cross process-comparable clocks (the shared epoch), so the
// same classification must hold there.
func TestConformanceWaitStates(t *testing.T) {
	const lag = 30 * time.Millisecond
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			stats := b.run(t, 2, func(c *Comm) {
				if c.Rank() == 0 {
					time.Sleep(lag) // late sender for tag 1
					c.Send(1, 1, []byte("late"))
					c.Send(1, 2, []byte("early"))
					c.Barrier()
					return
				}
				c.Recv(0, 1) // blocks on the late sender
				c.Barrier()  // tag-2 message now sits queued
				time.Sleep(lag)
				c.Recv(0, 2) // late receiver
			}, WithTimeout(10*time.Second))
			s := stats[1]
			if s.RecvsBlocked != 1 {
				t.Errorf("RecvsBlocked = %d, want 1", s.RecvsBlocked)
			}
			if s.RecvBlockedNs < int64(lag/2) {
				t.Errorf("RecvBlockedNs = %d, want >= %d", s.RecvBlockedNs, int64(lag/2))
			}
			if s.RecvQueueNs < int64(lag/2) {
				t.Errorf("RecvQueueNs = %d, want >= %d", s.RecvQueueNs, int64(lag/2))
			}
			if !s.Conserved() {
				t.Errorf("wait-state counters broke conservation: %+v", s)
			}
		})
	}
}

// TestConformanceBarrierSyncCounts pins the accounting parity that the
// CI diff job relies on: every backend bills a collective as exactly
// two synchronization points and a barrier as one, so BarrierSyncs (a
// deterministic counter) must be identical across transports.
func TestConformanceBarrierSyncCounts(t *testing.T) {
	counts := map[string]int64{}
	for _, b := range backendRunners() {
		stats := b.run(t, 3, func(c *Comm) {
			c.Barrier()
			c.AllgatherBytes([]byte{byte(c.Rank())})
			c.AllreduceF64(1, OpSum)
			c.Alltoallv(make([][]byte, 3))
			c.BcastBytes(0, []byte("x"))
		}, WithTimeout(10*time.Second))
		counts[b.name] = stats[0].BarrierSyncs
	}
	if counts["goroutine"] != counts["proc"] {
		t.Fatalf("BarrierSyncs differ: goroutine %d, proc %d", counts["goroutine"], counts["proc"])
	}
	if want := int64(1 + 2*4); counts["goroutine"] != want {
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
			c.AllreduceF64(float64(i), OpSum)
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

// TestConformancePoisonDiagnostics pins satellite-1's failure
// diagnostics on both backends: a rank blocked in Recv when the world
// is poisoned unwinds with the cause, the time it spent blocked, and a
// pending-inbox summary — not the old bare "world poisoned" message.
func TestConformancePoisonDiagnostics(t *testing.T) {
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			var msg string
			var mu sync.Mutex
			fn := func(c *Comm) {
				if c.Rank() == 0 {
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							msg = fmt.Sprint(p)
							mu.Unlock()
							panic(p)
						}
					}()
					c.Send(0, 9, []byte("pending-self")) // sits unmatched in our inbox
					c.Recv(1, 42)                        // blocks forever
					return
				}
				time.Sleep(20 * time.Millisecond)
				panic("boom with context")
			}
			if b.name == "goroutine" {
				func() {
					defer func() { recover() }()
					Run(2, fn, WithTimeout(10*time.Second))
				}()
			} else {
				runProcWorldErrs(t, 2, fn, WithTimeout(10*time.Second))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, want := range []string{"boom with context", "Recv(src=1, tag=42)", "cause:", "pending", "src=0 tag=9"} {
				if !strings.Contains(msg, want) {
					t.Errorf("poison panic %q missing %q", msg, want)
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
				c.Recv(1, 1) // blocks; poisoned by rank 1's panic
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
				for i := 0; i < 20; i++ {
					c.Send(1-c.Rank(), 7+i, bytes.Repeat([]byte{byte(i)}, 100+i))
					c.Recv(1-c.Rank(), 7+i)
				}
				c.Barrier()
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
	// bytes alike. Finish/barrier traffic is included on both sides, so
	// the totals still balance.
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
