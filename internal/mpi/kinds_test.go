package mpi

import (
	"sync"
	"testing"
)

func TestKindLabelsStable(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < NumKinds; k++ {
		n := Kind(k).String()
		if n == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		if seen[n] {
			t.Fatalf("duplicate kind name %q", n)
		}
		seen[n] = true
	}
	if KindOther.String() != "other" {
		t.Fatalf("zero kind is %q, want other", KindOther.String())
	}
}

// TestKindConservation is the per-kind conservation property test: on a
// multi-rank run mixing collectives under several ambient kinds, alltoallv
// exchanges, and traffic issued before any SetKind, every rank's kind
// buckets must sum to its aggregate totals on every field.
func TestKindConservation(t *testing.T) {
	const p = 4
	stats := Run(p, func(c *Comm) {
		me := c.Rank()
		next := (me + 1) % p
		ring := func(n int) [][]byte {
			bufs := make([][]byte, p)
			bufs[next] = make([]byte, n)
			return bufs
		}

		// Traffic before any SetKind lands in KindOther.
		c.Alltoallv(ring(5))

		restore := c.SetKind(KindGhostUpdate)
		c.Alltoallv(ring(16 + me))
		c.SetKind(KindModuleInfo)
		c.Alltoallv(ring(33))
		c.SetKind(restore)

		// Collectives under different ambient kinds.
		k := c.SetKind(KindCollective)
		c.AllreduceI64(int64(me), OpSum)
		c.AllreduceI64(int64(me), OpMax)
		c.SetKind(KindModulePartial)
		bufs := make([][]byte, p)
		for dst := range bufs {
			if dst != me {
				bufs[dst] = make([]byte, 8*(dst+1))
			}
		}
		c.Alltoallv(bufs)
		c.SetKind(KindAssignment)
		c.AllgatherBytes(make([]byte, 24))
		c.SetKind(k)
	})

	for r, s := range stats {
		if !s.Conserved() {
			t.Errorf("rank %d: kind buckets do not sum to totals:\nsums   %+v\ntotals %+v",
				r, s.KindSums(), s)
		}
		// Spot-check attribution: each exchange went to the kind that
		// was ambient when it ran.
		if got := s.ByKind[KindGhostUpdate].MsgsSent; got != 1 {
			t.Errorf("rank %d: ghost_update MsgsSent = %d, want 1", r, got)
		}
		if got := s.ByKind[KindModuleInfo].BytesSent; got != 33 {
			t.Errorf("rank %d: module_info BytesSent = %d, want 33", r, got)
		}
		if got := s.ByKind[KindModulePartial].MsgsSent; got != 3 {
			t.Errorf("rank %d: module_partial MsgsSent = %d, want 3", r, got)
		}
		if got := s.ByKind[KindCollective].Collectives; got != 2 {
			t.Errorf("rank %d: collective Collectives = %d, want 2 (two allreduces)", r, got)
		}
		if got := s.ByKind[KindAssignment].Collectives; got != 1 {
			t.Errorf("rank %d: assignment Collectives = %d, want 1", r, got)
		}
		if got := s.ByKind[KindOther].BytesSent; got != 5 {
			t.Errorf("rank %d: other BytesSent = %d, want 5", r, got)
		}
	}
}

// TestStatsSnapshotConcurrent locks in the Comm.Stats data-race fix:
// observers snapshot a rank's counters while the rank is actively
// communicating. Run under -race this fails on any unsynchronized
// counter access; in all modes every snapshot must be conserved (a torn
// read would break the kind-sum invariant).
func TestStatsSnapshotConcurrent(t *testing.T) {
	const p = 2
	const rounds = 500
	comms := make(chan *Comm, p)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Observer: hammer Stats() on both ranks mid-run.
		seen := 0
		for c := range comms {
			for i := 0; i < 2*rounds; i++ {
				s := c.Stats()
				if !s.Conserved() {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
			}
			seen++
		}
		if seen != p {
			t.Errorf("observer saw %d comms, want %d", seen, p)
		}
	}()
	Run(p, func(c *Comm) {
		comms <- c
		bufs := make([][]byte, p)
		bufs[(c.Rank()+1)%p] = make([]byte, 64)
		for i := 0; i < rounds; i++ {
			c.SetKind(KindModuleInfo)
			c.Alltoallv(bufs)
			c.SetKind(KindGhostUpdate)
			c.AllreduceI64(1, OpSum)
		}
	})
	close(comms)
	wg.Wait()
}

func TestStatsSubByKind(t *testing.T) {
	var before, after Stats
	before.ByKind[KindModuleInfo] = KindStats{BytesSent: 10, MsgsSent: 1}
	before.BytesSent, before.MsgsSent = 10, 1
	after.ByKind[KindModuleInfo] = KindStats{BytesSent: 25, MsgsSent: 2}
	after.ByKind[KindGhostUpdate] = KindStats{BytesRecv: 7, MsgsRecv: 1}
	after.BytesSent, after.MsgsSent = 25, 2
	after.BytesRecv, after.MsgsRecv = 7, 1

	d := after.Sub(before)
	if got := d.ByKind[KindModuleInfo]; got != (KindStats{BytesSent: 15, MsgsSent: 1}) {
		t.Fatalf("module_info delta = %+v", got)
	}
	if got := d.ByKind[KindGhostUpdate]; got != (KindStats{BytesRecv: 7, MsgsRecv: 1}) {
		t.Fatalf("ghost_update delta = %+v", got)
	}
	if !d.Conserved() {
		t.Fatalf("delta not conserved: %+v", d)
	}
	// Sub then Add round-trips, per-kind buckets included.
	sum := before
	sum.Add(d)
	if sum != after {
		t.Fatalf("before + delta = %+v, want %+v", sum, after)
	}
}
