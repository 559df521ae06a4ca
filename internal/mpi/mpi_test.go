package mpi

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSingleRank(t *testing.T) {
	ran := false
	Run(1, func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank=%d size=%d", c.Rank(), c.Size())
		}
		ran = true
	})
	if !ran {
		t.Fatal("function never ran")
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	var count int64
	Run(8, func(c *Comm) { atomic.AddInt64(&count, 1) })
	if count != 8 {
		t.Fatalf("ran %d ranks, want 8", count)
	}
}

func TestRunPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(0, func(c *Comm) {})
}

// TestSendCopiesPayload: a collective's results are copies, so once it
// returns the sender may overwrite the buffers it sent without touching
// what any rank received.
func TestSendCopiesPayload(t *testing.T) {
	Run(2, func(c *Comm) {
		buf := []byte("abc")
		bufs := [][]byte{buf, buf}
		got := c.Alltoallv(bufs)
		buf[0] = 'X' // mutate after the exchange
		if string(got[1-c.Rank()]) != "abc" {
			t.Errorf("alltoallv payload not copied: %q", got[1-c.Rank()])
		}
		parts := c.AllgatherBytes(buf)
		buf[1] = 'Y'
		if string(parts[1-c.Rank()]) != "Xbc" {
			t.Errorf("allgather payload not copied: %q", parts[1-c.Rank()])
		}
	})
}

// TestBarrierOrdering: no rank returns from a collective before every
// rank has entered it.
func TestBarrierOrdering(t *testing.T) {
	var before, after int64
	Run(8, func(c *Comm) {
		atomic.AddInt64(&before, 1)
		c.AllreduceI64(0, OpSum)
		if atomic.LoadInt64(&before) != 8 {
			t.Error("collective released before all ranks arrived")
		}
		atomic.AddInt64(&after, 1)
	})
	if after != 8 {
		t.Fatal("not all ranks passed the collective")
	}
}

// TestBarrierReusable runs many back-to-back collectives: the
// generation barrier under them must reset cleanly each time.
func TestBarrierReusable(t *testing.T) {
	var counter int64
	Run(4, func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.AllgatherBytes(nil)
			atomic.AddInt64(&counter, 1)
			c.AllgatherBytes(nil)
			if v := atomic.LoadInt64(&counter); v%4 != 0 {
				t.Errorf("iteration %d: counter %d not multiple of 4", i, v)
			}
		}
	})
}

// bareProcQueues returns a ProcTransport with only its receive side:
// frame queues from two peers that the test fills by hand, no sockets.
func bareProcQueues() *ProcTransport {
	t := &ProcTransport{timeout: 10 * time.Second, epoch: time.Now()}
	t.in = []chan frame{nil, make(chan frame, queueDepth), make(chan frame, queueDepth)}
	t.fail.init()
	return t
}

// TestRecvRejectsOutOfSequenceFrame: frames are taken in each peer's
// arrival order, one queue per peer, and a head frame that belongs to
// another collective unwinds the rank naming both sequence numbers.
func TestRecvRejectsOutOfSequenceFrame(t *testing.T) {
	tr := bareProcQueues()
	tr.in[1] <- frame{tag: 0, data: []byte("this")}
	tr.in[1] <- frame{tag: 1, data: []byte("next")}
	tr.in[2] <- frame{tag: 1, data: []byte("ahead")}
	if got := tr.recv(1, 0, "ScatterSlots"); string(got) != "this" {
		t.Fatalf("recv(1, seq 0) = %q, want %q", got, "this")
	}
	if got := tr.recv(1, 1, "ScatterSlots"); string(got) != "next" {
		t.Fatalf("recv(1, seq 1) = %q, want %q", got, "next")
	}
	defer func() {
		want := "ScatterSlots(src=2, seq=0) received the frame of collective 1"
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("out-of-sequence frame: panic = %v, want %q", p, want)
		}
	}()
	tr.recv(2, 0, "ScatterSlots")
}

// TestQueuedRecvAllocFree pins the proc transport's already-arrived
// receive path at zero allocations: the deadlock timer is created only
// when a receive has to wait.
func TestQueuedRecvAllocFree(t *testing.T) {
	tr := bareProcQueues()
	payload := make([]byte, 32)
	seq := 0
	avg := testing.AllocsPerRun(100, func() {
		tr.in[1] <- frame{tag: seq, data: payload}
		tr.recv(1, seq, "ScatterSlots")
		seq++
	})
	if avg != 0 {
		t.Errorf("queued receive: %v allocs/op, want 0", avg)
	}
}

// TestCollectivesAllocFree pins the goroutine backend's steady state at
// zero allocations, counting both ranks: once the pools, views and
// barrier timers are warm, an AllreduceI64 or an Alltoallv allocates
// nothing.
func TestCollectivesAllocFree(t *testing.T) {
	const runs = 100
	bufs := [][]byte{make([]byte, 64), make([]byte, 64)}
	for _, tc := range []struct {
		name string
		op   func(c *Comm)
	}{
		{"AllreduceI64", func(c *Comm) { c.AllreduceI64(int64(c.Rank()), OpSum) }},
		{"Alltoallv", func(c *Comm) { c.Alltoallv(bufs) }},
	} {
		Run(2, func(c *Comm) {
			tc.op(c) // warm the pools and this rank's barrier timer
			if c.Rank() == 1 {
				// AllocsPerRun calls the body runs+1 times (one warm-up).
				for i := 0; i < runs+1; i++ {
					tc.op(c)
				}
				return
			}
			if avg := testing.AllocsPerRun(runs, func() { tc.op(c) }); avg != 0 {
				t.Errorf("%s: %v allocs/op across both ranks, want 0", tc.name, avg)
			}
		}, WithTimeout(10*time.Second))
	}
}

// TestReleaseBuffersDropsSlabs pins that a released pool holds no slab
// capacity: after large exchanges, ReleaseBuffers leaves the receive
// slabs, their result headers and every registered send encoder without
// storage, and the next exchanges still deliver.
func TestReleaseBuffersDropsSlabs(t *testing.T) {
	Run(2, func(c *Comm) {
		sb := c.NewSendBuffers()
		sb.Reset()
		for r := 0; r < c.Size(); r++ {
			sb.For(r).Append(make([]byte, 1<<16))
		}
		c.Alltoallv(sb.Bufs())
		c.AllgatherBytes(make([]byte, 1<<16))

		c.ReleaseBuffers()
		for name, s := range map[string]*recvSlab{"Alltoallv": &c.pool.a2a, "AllgatherBytes": &c.pool.ag} {
			if cap(s.buf) != 0 {
				t.Errorf("rank %d: released %s slab keeps %d bytes", c.Rank(), name, cap(s.buf))
			}
			for src, b := range s.out {
				if b != nil {
					t.Errorf("rank %d: released %s result %d still aliases %d bytes", c.Rank(), name, src, cap(b))
				}
			}
		}
		for dst, e := range sb.encs {
			if e != nil || sb.bufs[dst] != nil {
				t.Errorf("rank %d: released send buffer for %d keeps its storage", c.Rank(), dst)
			}
		}

		sb.Reset()
		sb.For(1 - c.Rank()).PutInt(c.Rank())
		d := NewDecoder(c.Alltoallv(sb.Bufs())[1-c.Rank()])
		if got := d.Int(); got != 1-c.Rank() {
			t.Errorf("rank %d: after release received %d, want %d", c.Rank(), got, 1-c.Rank())
		}
	})
}

func TestAllgatherBytes(t *testing.T) {
	Run(5, func(c *Comm) {
		out := c.AllgatherBytes([]byte{byte(c.Rank() * 10)})
		for i, b := range out {
			if len(b) != 1 || b[0] != byte(i*10) {
				t.Errorf("out[%d] = %v", i, b)
			}
		}
	})
}

func TestAllreduceI64(t *testing.T) {
	Run(3, func(c *Comm) {
		x := int64(c.Rank()) - 1 // -1, 0, 1
		if s := c.AllreduceI64(x, OpSum); s != 0 {
			t.Errorf("sum = %v, want 0", s)
		}
		if m := c.AllreduceI64(x, OpMin); m != -1 {
			t.Errorf("min = %v, want -1", m)
		}
		if m := c.AllreduceI64(x, OpMax); m != 1 {
			t.Errorf("max = %v, want 1", m)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	Run(4, func(c *Comm) {
		bufs := make([][]byte, 4)
		for dst := 0; dst < 4; dst++ {
			bufs[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		out := c.Alltoallv(bufs)
		for src := 0; src < 4; src++ {
			if len(out[src]) != 2 || out[src][0] != byte(src) || out[src][1] != byte(c.Rank()) {
				t.Errorf("out[%d] = %v", src, out[src])
			}
		}
	})
}

func TestAlltoallvEmptyBuffers(t *testing.T) {
	Run(3, func(c *Comm) {
		bufs := make([][]byte, 3) // all nil
		out := c.Alltoallv(bufs)
		for src := range out {
			if len(out[src]) != 0 {
				t.Errorf("expected empty, got %v", out[src])
			}
		}
	})
}

func TestStatsCounting(t *testing.T) {
	stats := Run(2, func(c *Comm) {
		bufs := make([][]byte, 2)
		if c.Rank() == 0 {
			bufs[0] = make([]byte, 40) // self-delivery is not traffic
			bufs[1] = make([]byte, 100)
		}
		c.Alltoallv(bufs)
	})
	if stats[0].BytesSent != 100 || stats[0].MsgsSent != 1 {
		t.Errorf("rank 0 stats = %+v", stats[0])
	}
	if stats[1].BytesRecv != 100 || stats[1].MsgsRecv != 1 {
		t.Errorf("rank 1 stats = %+v", stats[1])
	}
}

func TestStatsCollectiveModel(t *testing.T) {
	stats := Run(4, func(c *Comm) {
		c.AllgatherBytes(make([]byte, 64))
	})
	// log2(4) = 2 steps, 64 bytes each.
	for r, s := range stats {
		if s.Collectives != 1 || s.CollectiveMsgs != 2 || s.CollectiveBytes != 128 {
			t.Errorf("rank %d collective stats = %+v", r, s)
		}
	}
}

func TestStatsAddAndTotal(t *testing.T) {
	a := Stats{KindStats: KindStats{BytesSent: 1, BytesRecv: 2, CollectiveBytes: 3}}
	b := Stats{KindStats: KindStats{BytesSent: 10, BytesRecv: 20, CollectiveBytes: 30}}
	a.Add(b)
	if a.TotalBytes() != 66 {
		t.Fatalf("TotalBytes = %d, want 66", a.TotalBytes())
	}
}

func TestPanicPropagatesAndUnblocksOthers(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "boom") {
			t.Fatalf("panic = %v, want to contain 'boom'", p)
		}
	}()
	Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		c.AllreduceI64(1, OpSum) // would deadlock without poison propagation
	}, WithTimeout(10*time.Second))
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "deadlock") ||
			!strings.Contains(fmt.Sprint(p), "1 of 2 ranks had arrived") {
			t.Fatalf("panic = %v, want deadlock report naming the arrivals", p)
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.AllgatherBytes([]byte{1}) // rank 1 never joins
		}
		// rank 1 exits immediately
	}, WithTimeout(200*time.Millisecond))
}

// TestPerWorldTimeoutIsolated runs a short-timeout world that deadlocks
// while a second, long-timeout world is in flight. Before the timeout
// became per-World state, the only way to lower it was to mutate the
// package global mid-run — a data race -race can hit and a semantic bug
// (the slow world would inherit the short deadline). The concurrent
// world must finish normally under its own timeout.
func TestPerWorldTimeoutIsolated(t *testing.T) {
	slowDone := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				slowDone <- fmt.Errorf("slow world panicked: %v", p)
				return
			}
			slowDone <- nil
		}()
		Run(2, func(c *Comm) {
			// Enough collectives to overlap the fast world's deadlock
			// window.
			for i := 0; i < 20; i++ {
				c.AllreduceI64(int64(i), OpSum)
				time.Sleep(5 * time.Millisecond)
			}
		}, WithTimeout(30*time.Second))
	}()

	fastDone := make(chan any, 1)
	go func() {
		defer func() { fastDone <- recover() }()
		Run(2, func(c *Comm) {
			if c.Rank() == 0 {
				c.AllgatherBytes(nil) // rank 1 never joins: must hit the 50ms watchdog
			}
		}, WithTimeout(50*time.Millisecond))
	}()

	if p := <-fastDone; p == nil || !strings.Contains(fmt.Sprint(p), "deadlock") {
		t.Fatalf("fast world panic = %v, want deadlock report", p)
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutU64(12345678901234)
	e.PutI64(-42)
	e.PutInt(987654)
	e.PutF64(3.14159)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	if d.U64() != 12345678901234 {
		t.Error("U64 mismatch")
	}
	if d.I64() != -42 {
		t.Error("I64 mismatch")
	}
	if d.Int() != 987654 {
		t.Error("Int mismatch")
	}
	if d.F64() != 3.14159 {
		t.Error("F64 mismatch")
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool mismatch")
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderPanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDecoder([]byte{1, 2}).U64()
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutU64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after reset = %d", e.Len())
	}
}

// Stress test: many ranks, many iterations of mixed traffic on both
// backends; checks the runtime against races (run with -race) and lost
// messages. Rank 0 sleeps before every other iteration: the peers that
// get its frame first then run one collective ahead, so their next
// frames queue behind the current ones at the ranks still waiting.
func TestStressMixedTraffic(t *testing.T) {
	const p = 8
	const iters = 30
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			b.run(t, p, func(c *Comm) {
				bufs := make([][]byte, p)
				for it := 0; it < iters; it++ {
					if c.Rank() == 0 && it%2 == 1 {
						time.Sleep(time.Millisecond)
					}
					// Ring exchange: each rank sends only to its successor.
					next := (c.Rank() + 1) % p
					prev := (c.Rank() + p - 1) % p
					e := NewEncoder(16)
					e.PutInt(it)
					e.PutInt(c.Rank())
					bufs[next] = e.Bytes()
					recv := c.Alltoallv(bufs)
					d := NewDecoder(recv[prev])
					if d.Int() != it || d.Int() != prev {
						t.Errorf("ring message corrupted at iter %d", it)
					}
					for src, buf := range recv {
						if src != prev && len(buf) != 0 {
							t.Errorf("iter %d: %d bytes from non-neighbor %d", it, len(buf), src)
						}
					}
					// Collective.
					sum := c.AllreduceI64(1, OpSum)
					if sum != p {
						t.Errorf("allreduce sum = %d, want %d", sum, p)
					}
				}
			}, WithTimeout(30*time.Second))
		})
	}
}
