package mpi

import (
	"testing"
	"time"
)

// TestBarrierSkewChargedToFastRank delays one rank before a collective:
// the prompt rank pays the arrival-to-release skew, the straggler pays
// (almost) nothing.
func TestBarrierSkewChargedToFastRank(t *testing.T) {
	const delay = 20 * time.Millisecond
	stats := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			time.Sleep(delay)
		}
		c.AllgatherBytes([]byte{byte(c.Rank())})
	})
	fast, slow := stats[1], stats[0]
	if fast.BarrierWaitNs < (delay / 2).Nanoseconds() {
		t.Errorf("fast rank BarrierWaitNs = %d, want >= %d",
			fast.BarrierWaitNs, (delay / 2).Nanoseconds())
	}
	if slow.BarrierWaitNs >= fast.BarrierWaitNs {
		t.Errorf("straggler waited %dns, fast rank %dns: skew charged to the wrong side",
			slow.BarrierWaitNs, fast.BarrierWaitNs)
	}
	for r, s := range stats {
		if s.BarrierSyncs != 2 {
			t.Errorf("rank %d BarrierSyncs = %d, want 2 (one collective)", r, s.BarrierSyncs)
		}
	}
}

// TestWaitConservation runs mixed traffic with deliberate skew and
// checks that every wait increment landed in the totals and in exactly
// one kind bucket (Conserved), and that BlockedNs is the skew.
func TestWaitConservation(t *testing.T) {
	stats := Run(4, func(c *Comm) {
		prev := c.SetKind(KindModuleInfo)
		if c.Rank()%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		bufs := make([][]byte, c.Size())
		bufs[(c.Rank()+1)%c.Size()] = []byte("ring")
		c.Alltoallv(bufs)
		c.SetKind(KindGhostUpdate)
		c.AllreduceI64(int64(c.Rank()), OpSum)
		c.SetKind(prev)
	})
	for r, s := range stats {
		if !s.Conserved() {
			t.Errorf("rank %d: wait counters not conserved across kind buckets: %+v", r, s)
		}
		if got := s.BlockedNs(); got != s.BarrierWaitNs {
			t.Errorf("rank %d: BlockedNs = %d, want BarrierWaitNs = %d", r, got, s.BarrierWaitNs)
		}
		var kindSum Stats
		for k := 0; k < NumKinds; k++ {
			kindSum.BarrierWaitNs += s.ByKind[k].BarrierWaitNs
			kindSum.BarrierSyncs += s.ByKind[k].BarrierSyncs
		}
		if kindSum.BarrierWaitNs != s.BarrierWaitNs || kindSum.BarrierSyncs != s.BarrierSyncs {
			t.Errorf("rank %d: kind sums %+v do not reproduce totals", r, kindSum)
		}
		if s.ByKind[KindModuleInfo].BarrierSyncs != 2 || s.ByKind[KindGhostUpdate].BarrierSyncs != 2 {
			t.Errorf("rank %d: syncs per kind = %d/%d, want 2/2", r,
				s.ByKind[KindModuleInfo].BarrierSyncs, s.ByKind[KindGhostUpdate].BarrierSyncs)
		}
	}
}

// TestWaitStatsSub checks the wait counters subtract like the traffic
// counters, so interval deltas (report iterations) stay meaningful.
func TestWaitStatsSub(t *testing.T) {
	a := Stats{KindStats: KindStats{BarrierWaitNs: 70, BarrierSyncs: 9}}
	b := Stats{KindStats: KindStats{BarrierWaitNs: 30, BarrierSyncs: 4}}
	d := a.Sub(b)
	if d.BarrierWaitNs != 40 || d.BarrierSyncs != 5 {
		t.Fatalf("Sub = %+v", d)
	}
}

// TestRecorderCapturesEvents attaches a Recorder to runs on both
// backends and checks the event log against the counters: one
// synchronization passage per BarrierSyncs, aligned across ranks, on
// both; and on the proc backend one stamped frame match per peer per
// collective, which the goroutine backend (no wire) never records.
func TestRecorderCapturesEvents(t *testing.T) {
	const p, collectives = 3, 3
	for _, b := range backendRunners() {
		t.Run(b.name, func(t *testing.T) {
			rec := NewRecorder(p, time.Time{})
			stats := b.run(t, p, func(c *Comm) {
				bufs := make([][]byte, p)
				bufs[(c.Rank()+1)%p] = []byte{byte(c.Rank())}
				c.Alltoallv(bufs)
				c.AllgatherBytes([]byte{byte(c.Rank()), 0})
				c.AllreduceI64(1, OpSum)
			}, WithTimeout(10*time.Second), WithRecorder(rec))

			for r := 0; r < p; r++ {
				evs := rec.P2P(r)
				want := collectives * (p - 1)
				if b.name == "goroutine" {
					want = 0
				}
				if len(evs) != want {
					t.Errorf("rank %d: %d recorded frame matches, want %d", r, len(evs), want)
				}
				for _, ev := range evs {
					if ev.Src == r || ev.Src < 0 || ev.Src >= p {
						t.Errorf("rank %d: match from bad source: %+v", r, ev)
					}
					if ev.RecvEnd < ev.RecvStart || ev.SentAt < 0 {
						t.Errorf("rank %d: bad match timing: %+v", r, ev)
					}
				}
				bars := rec.Barriers(r)
				if int64(len(bars)) != stats[r].BarrierSyncs {
					t.Errorf("rank %d: %d recorded syncs, stats say %d", r, len(bars), stats[r].BarrierSyncs)
				}
				for _, b := range bars {
					if b.Release < b.Arrive {
						t.Errorf("rank %d: released before arrival: %+v", r, b)
					}
				}
			}
			// Every rank passes the same synchronization points, so the
			// logs must align generation for generation.
			for r := 1; r < p; r++ {
				if len(rec.Barriers(r)) != len(rec.Barriers(0)) {
					t.Fatalf("ragged barrier logs: rank 0 has %d, rank %d has %d",
						len(rec.Barriers(0)), r, len(rec.Barriers(r)))
				}
			}
		})
	}
}

// TestRecorderSizeMismatchPanics: attaching a recorder sized for the
// wrong world is a bug, not a condition to limp through.
func TestRecorderSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(2, func(c *Comm) {}, WithRecorder(NewRecorder(3, time.Time{})))
}
