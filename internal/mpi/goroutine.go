package mpi

import "time"

// goroutineTransport is the in-process backend: one rank of a World of
// goroutines. Messages cross through shared inboxes, collectives
// through the world's exchange slots, and synchronization through one
// reusable generation barrier. It is embedded by value in the rank's
// Comm, so selecting this backend costs no extra allocation per rank.
type goroutineTransport struct {
	rank    int
	w       *World
	a2aView [][]byte // per-source views for ScatterSlots, lazily sized
}

func (t *goroutineTransport) Rank() int          { return t.rank }
func (t *goroutineTransport) Size() int          { return t.w.size }
func (t *goroutineTransport) Now() time.Duration { return t.w.now() }

func (t *goroutineTransport) Send(dst, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	t.w.inboxes[dst].put(message{src: t.rank, tag: tag, data: cp, sentAt: t.w.now()})
}

// Recv blocks until a matching message arrives. The deadlock timer is
// created lazily so the already-arrived fast path stays allocation-free,
// and the blocked-since stamp is taken at the same moment so failure
// diagnostics report the time actually spent blocked.
func (t *goroutineTransport) Recv(src, tag int) ([]byte, int, time.Duration) {
	ib := t.w.inboxes[t.rank]
	var deadline *time.Timer
	var began time.Duration
	for {
		if m, ok := ib.take(src, tag); ok {
			if deadline != nil {
				stopTimer(deadline)
			}
			return m.data, m.src, m.sentAt
		}
		if deadline == nil {
			deadline = time.NewTimer(t.w.timeout)
			began = t.w.now()
		}
		select {
		case <-ib.arrived:
		case <-t.w.fail.poison:
			poisonRecvPanic(t.rank, "Recv", src, tag, t.w.now()-began, t.w.fail.failure(), ib)
		case <-deadline.C:
			deadlockRecvPanic(t.rank, "Recv", src, tag, t.w.now()-began, ib)
		}
	}
}

func (t *goroutineTransport) Sync() {
	t.w.barrier.wait(&t.w.fail, t.rank, t.w.timeout)
}

func (t *goroutineTransport) GatherSlots(data []byte) [][]byte {
	t.w.slots[t.rank] = data
	t.Sync()
	return t.w.slots
}

func (t *goroutineTransport) ScatterSlots(bufs [][]byte) [][]byte {
	w := t.w
	w.a2a[t.rank] = bufs
	t.Sync()
	if t.a2aView == nil {
		t.a2aView = make([][]byte, w.size)
	}
	for src := 0; src < w.size; src++ {
		if w.a2a[src] != nil {
			t.a2aView[src] = w.a2a[src][t.rank]
		} else {
			t.a2aView[src] = nil
		}
	}
	return t.a2aView
}

func (t *goroutineTransport) BcastSlot(root int, data []byte) []byte {
	if t.rank == root {
		t.w.slots[root] = data
	}
	t.Sync()
	return t.w.slots[root]
}

// ReleaseSlots is the read-done barrier of the slot-exchange pattern:
// after it, every rank has copied what it needed and the shared slots
// may be republished.
func (t *goroutineTransport) ReleaseSlots() { t.Sync() }

func (t *goroutineTransport) Abort(err error) { t.w.fail.poisonWith(err) }
func (t *goroutineTransport) Err() error      { return t.w.fail.failure() }

// Finish is a no-op: Run owns the world's teardown, and goroutine ranks
// share one address space, so a returning rank cannot strand peers.
func (t *goroutineTransport) Finish() {}
