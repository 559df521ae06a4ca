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

// bareProcInbox returns a ProcTransport with only its receive side: an
// inbox the test fills by hand, no sockets.
func bareProcInbox() *ProcTransport {
	t := &ProcTransport{ib: newInbox(), timeout: 10 * time.Second, epoch: time.Now()}
	t.fail.init()
	return t
}

// TestRecvMatchesTag: the proc transport's receive matches frames on
// (source, tag), not arrival order, so a frame of a later collective
// from a peer that ran ahead waits until its own collective asks.
func TestRecvMatchesTag(t *testing.T) {
	tr := bareProcInbox()
	tr.ib.put(message{src: 1, tag: tagGather - 1, data: []byte("next")})
	tr.ib.put(message{src: 2, tag: tagGather, data: []byte("other peer")})
	tr.ib.put(message{src: 1, tag: tagGather, data: []byte("this")})
	if m := tr.recvMatch(1, tagGather, "Allgather"); string(m.data) != "this" {
		t.Fatalf("recvMatch(1, seq 0) = %q, want %q", m.data, "this")
	}
	if m := tr.recvMatch(1, tagGather-1, "Allgather"); string(m.data) != "next" {
		t.Fatalf("recvMatch(1, seq 1) = %q, want %q", m.data, "next")
	}
	if m := tr.recvMatch(2, tagGather, "Allgather"); string(m.data) != "other peer" {
		t.Fatalf("recvMatch(2, seq 0) = %q, want %q", m.data, "other peer")
	}
}

// TestQueuedRecvAllocFree pins the proc transport's already-arrived
// receive path at zero allocations: the deadlock timer is created only
// when a receive has to wait.
func TestQueuedRecvAllocFree(t *testing.T) {
	const runs = 100
	tr := bareProcInbox()
	payload := make([]byte, 32)
	// AllocsPerRun invokes the body runs+1 times (one warm-up).
	for i := 0; i < runs+1; i++ {
		tr.ib.put(message{src: 1, tag: tagScat, data: payload})
	}
	avg := testing.AllocsPerRun(runs, func() {
		tr.recvMatch(1, tagScat, "Alltoallv")
	})
	if avg != 0 {
		t.Errorf("queued receive: %v allocs/op, want 0", avg)
	}
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
	a := Stats{BytesSent: 1, BytesRecv: 2, CollectiveBytes: 3}
	b := Stats{BytesSent: 10, BytesRecv: 20, CollectiveBytes: 30}
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

// TestTakeClearsVacatedSlot checks that removing a message from the
// middle of the inbox queue zeroes the vacated tail slot: the buggy
// append-based delete left a duplicate reference to the tail message in
// the backing array, retaining its payload for the inbox's lifetime.
func TestTakeClearsVacatedSlot(t *testing.T) {
	ib := newInbox()
	ib.put(message{src: 0, tag: 1, data: []byte("first")})
	ib.put(message{src: 1, tag: 2, data: []byte("second")})
	ib.put(message{src: 2, tag: 3, data: make([]byte, 1<<20)})

	m, ok := ib.take(0, 1)
	if !ok || string(m.data) != "first" {
		t.Fatalf("take(0,1) = %+v, %v", m, ok)
	}
	if len(ib.queue) != 2 {
		t.Fatalf("queue length = %d, want 2", len(ib.queue))
	}
	// The slot the tail shifted out of must not retain the big payload.
	tail := ib.queue[:3][2]
	if tail.data != nil {
		t.Fatalf("vacated slot still references %d payload bytes", len(tail.data))
	}
	if tail.src != 0 || tail.tag != 0 {
		t.Fatalf("vacated slot not zeroed: %+v", tail)
	}
	// The remaining messages are intact and in order.
	if _, ok := ib.take(2, 2); ok {
		t.Fatal("take(2,2) matched a message from another source")
	}
	if m, ok := ib.take(1, 2); !ok || string(m.data) != "second" {
		t.Fatalf("take(1,2) = %+v, %v", m, ok)
	}
	if m, ok := ib.take(2, 3); !ok || len(m.data) != 1<<20 {
		t.Fatalf("take(2,3) = %d bytes, %v", len(m.data), ok)
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

// Stress test: many ranks, many iterations of mixed traffic; checks the
// runtime against races (run with -race) and lost messages.
func TestStressMixedTraffic(t *testing.T) {
	const p = 8
	const iters = 30
	Run(p, func(c *Comm) {
		bufs := make([][]byte, p)
		for it := 0; it < iters; it++ {
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
			for src, b := range recv {
				if src != prev && len(b) != 0 {
					t.Errorf("iter %d: %d bytes from non-neighbor %d", it, len(b), src)
				}
			}
			// Collective.
			sum := c.AllreduceI64(1, OpSum)
			if sum != p {
				t.Errorf("allreduce sum = %d, want %d", sum, p)
			}
		}
	})
}
