package mpi

import "time"

// goroutineTransport is the in-process backend: one rank of a World of
// goroutines. Collectives cross through the world's exchange slots and
// synchronize through one reusable barrier, whose watchdog and poison
// wake-up carry the backend's failure diagnostics. It is embedded by
// value in the rank's Comm, so selecting this backend costs no extra
// allocation per rank.
type goroutineTransport struct {
	rank int
	w    *World
	view [][]byte // per-source views returned by ScatterSlots
}

func (t *goroutineTransport) Rank() int          { return t.rank }
func (t *goroutineTransport) Size() int          { return t.w.size }
func (t *goroutineTransport) Now() time.Duration { return t.w.now() }

func (t *goroutineTransport) sync() {
	t.w.barrier.wait(&t.w.fail, t.rank, t.w.timeout)
}

func (t *goroutineTransport) ScatterSlots(bufs [][]byte) [][]byte {
	w := t.w
	w.a2a[t.rank] = bufs
	t.sync()
	for src, sent := range w.a2a {
		t.view[src] = sent[t.rank]
	}
	return t.view
}

// ReleaseSlots is the read-done barrier of the slot-exchange pattern:
// after it, every rank has copied what it needed and the shared slots
// may be republished.
func (t *goroutineTransport) ReleaseSlots() { t.sync() }

func (t *goroutineTransport) Abort(err error) { t.w.fail.poisonWith(err) }
func (t *goroutineTransport) Err() error      { return t.w.fail.failure() }

// Finish is a no-op: Run owns the world's teardown, and goroutine ranks
// share one address space, so a returning rank cannot strand peers.
func (t *goroutineTransport) Finish() {}
