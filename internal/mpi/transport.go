// Transport abstracts the wire under the collective layer.
//
// Comm implements kinds, stats, wait accounting, and pooled receive
// storage once; a Transport only moves one collective's bytes between
// ranks and synchronizes them. Two backends exist:
//
//   - the in-process goroutine transport (goroutine.go): ranks are
//     goroutines in one World, payloads cross via shared exchange
//     slots. Fast and deterministic — the backend all tests and
//     determinism goldens run on.
//   - the multi-process transport (proc.go): each rank is an OS
//     process, peers connect over TCP or unix sockets with
//     length-prefixed frames. Real parallelism and real wall clock.
//
// The same rank code runs unmodified on both because Comm is the only
// consumer of this interface.
package mpi

import (
	"sync"
	"time"
)

// Transport is one rank's endpoint into a world of ranks. Like Comm,
// a Transport is owned by its rank: the communication methods are not
// safe for concurrent use by multiple goroutines.
//
// Collectives use a two-phase window: a Publish method contributes the
// local payload and blocks until every rank has contributed, the caller
// copies what it needs out of the returned views, and ReleaseSlots
// closes the window (the returned views are invalid after that). Both
// phases are full synchronization points on the goroutine backend; the
// proc backend's ReleaseSlots does not synchronize, because its
// per-message sequence tags make early re-publication safe, and only
// hands the received frames back to its readers.
type Transport interface {
	// Rank returns this rank's id in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Now returns the world's monotonic clock: time since the shared
	// epoch. Stamps from all ranks are comparable on it.
	Now() time.Duration

	// Sync blocks until every rank has entered the same synchronization
	// point. No cost accounting — Comm charges around it.
	Sync()

	// GatherSlots contributes data and blocks until every rank has
	// contributed; the result holds rank i's contribution at index i.
	// The views (including the local one) alias transport storage or
	// the caller's own buffer and are valid only until ReleaseSlots.
	GatherSlots(data []byte) [][]byte
	// ScatterSlots sends bufs[dst] to each rank dst (nil entries send
	// nothing) and blocks until this rank's column is complete; the
	// result holds the payload received from rank src at index src,
	// valid only until ReleaseSlots. len(bufs) must equal Size().
	ScatterSlots(bufs [][]byte) [][]byte
	// ReleaseSlots closes the collective window opened by the last
	// Publish call: transport storage becomes reusable and the views
	// returned by it are dead.
	ReleaseSlots()

	// Abort poisons the world with err: every rank blocked in a
	// communication call unwinds with a panic naming the cause, on this
	// process and (for the proc backend) on every peer process.
	Abort(err error)
	// Err returns the first failure recorded for this world, nil if
	// the world is healthy.
	Err() error
	// Finish completes this rank's participation cleanly: a final
	// synchronization so that tearing down the transport cannot poison
	// peers still mid-algorithm. It panics if the world was poisoned
	// while waiting. The transport is unusable afterwards.
	Finish()
}

// failState is the shared poison latch of one world: the first failure
// wins, and closing the poison channel wakes every rank blocked in a
// communication call. Both backends embed one.
type failState struct {
	poison chan struct{}
	once   sync.Once
	mu     sync.Mutex
	err    error
}

func (f *failState) init() { f.poison = make(chan struct{}) }

// poisonWith records err as the world's failure (first caller wins) and
// wakes all waiters. Safe to call from any goroutine, repeatedly.
func (f *failState) poisonWith(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.once.Do(func() { close(f.poison) })
}

// failure returns the recorded cause, nil if the world is healthy.
func (f *failState) failure() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// stopTimer stops t and drains its channel if it already fired, so a
// timer discarded on the non-timeout path cannot leave a stale tick
// behind. (The timers here are per-wait and garbage-collected either
// way; draining keeps tight wait loops from accumulating fired timers
// that the runtime must still track until their channels are collected.)
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
