package mpi

import "time"

// goroutineTransport is the in-process backend: one rank of a World of
// goroutines. Collectives cross through the world's exchange slots and
// synchronize through one reusable generation barrier, whose watchdog
// and poison wake-up carry the backend's failure diagnostics. It is
// embedded by value in the rank's Comm, so selecting this backend costs
// no extra allocation per rank.
type goroutineTransport struct {
	rank    int
	w       *World
	a2aView [][]byte // per-source views for ScatterSlots, lazily sized
}

func (t *goroutineTransport) Rank() int          { return t.rank }
func (t *goroutineTransport) Size() int          { return t.w.size }
func (t *goroutineTransport) Now() time.Duration { return t.w.now() }

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

// ReleaseSlots is the read-done barrier of the slot-exchange pattern:
// after it, every rank has copied what it needed and the shared slots
// may be republished.
func (t *goroutineTransport) ReleaseSlots() { t.Sync() }

func (t *goroutineTransport) Abort(err error) { t.w.fail.poisonWith(err) }
func (t *goroutineTransport) Err() error      { return t.w.fail.failure() }

// Finish is a no-op: Run owns the world's teardown, and goroutine ranks
// share one address space, so a returning rank cannot strand peers.
func (t *goroutineTransport) Finish() {}
