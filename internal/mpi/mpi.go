// Package mpi is a message-passing runtime that plays the role MPI
// plays in the paper's C++ implementation. Each rank runs the same SPMD
// function, as a goroutine (Run) or as an OS process over the proc
// transport (RunRank); ranks communicate only through three
// collectives (Alltoallv, AllgatherBytes, AllreduceI64), never through
// shared memory. The algorithm is bulk-synchronous, so that is the
// whole surface it needs.
//
// Every payload crosses the "network" as a []byte, so the per-rank byte
// and message counters are exact: the communication-volume results in the
// reproduction (Figures 7-8) measure real serialized traffic, not
// estimates. Collective costs are additionally modeled with a
// recursive-doubling term (log2 p messages per call) for the alpha-beta
// cost model in package trace.
//
// The runtime is deliberately synchronous and deterministic-friendly:
// every collective completes on all ranks before any rank uses its
// result, and a watchdog converts deadlocks into panics with
// diagnostics instead of hangs.
package mpi

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// DeadlockTimeout is the default for how long a collective may block
// before the runtime declares a deadlock and panics. It is read once
// when a World is created; to lower it for a single run (as tests do)
// pass WithTimeout to Run instead of mutating this variable, which
// would race with concurrently running worlds.
var DeadlockTimeout = 120 * time.Second

// World owns the shared state of one simulated cluster run. It also
// doubles as the options bag for RunOpts: DialProc applies them to a
// detached World to pick up timeout/connect/recorder settings for the
// multi-process backend.
type World struct {
	size    int
	timeout time.Duration // deadlock watchdog; immutable after Run starts
	connect time.Duration // proc backend's dial+handshake budget (WithConnectTimeout)
	epoch   time.Time     // zero point of all barrier timestamps
	rec     *Recorder     // optional wait-state event recorder (may be nil)
	barrier *barrier
	a2a     [][][]byte // exchange slots: a2a[r] is rank r's ScatterSlots send list
	fail    failState
}

// now returns the world's monotonic clock: time since the epoch. All
// barrier arrival/release times share it, so they are directly
// comparable across ranks (one process, one clock).
func (w *World) now() time.Duration { return time.Since(w.epoch) }

// RunOpt configures one Run before its ranks start.
type RunOpt func(*World)

// WithTimeout sets this world's deadlock timeout, overriding the
// package default DeadlockTimeout for this run only. d <= 0 keeps the
// default. It governs steady-state waits — the blocking phases of
// collectives — once the world is up; the proc backend's connection
// establishment is budgeted separately by WithConnectTimeout.
func WithTimeout(d time.Duration) RunOpt {
	return func(w *World) {
		if d > 0 {
			w.timeout = d
		}
	}
}

// DefaultConnectTimeout bounds the multi-process backend's dial,
// accept, and handshake phase. It is deliberately much shorter than
// DeadlockTimeout: a peer process that never comes up should fail the
// launch in seconds, not stall the mesh for the full deadlock window.
const DefaultConnectTimeout = 30 * time.Second

// WithConnectTimeout sets the proc backend's connection-establishment
// budget (dial retries, accepts, and handshakes all share it),
// overriding DefaultConnectTimeout. d <= 0 keeps the default. Once the
// mesh is up, WithTimeout's deadlock watchdog takes over — the two
// never overlap in time. The in-process goroutine backend has no
// connection phase, so this option is a documented no-op there.
func WithConnectTimeout(d time.Duration) RunOpt {
	return func(w *World) {
		if d > 0 {
			w.connect = d
		}
	}
}

// Comm is one rank's endpoint into a world. Communication methods are
// not safe for concurrent use by multiple goroutines (like an MPI
// communicator handle), but Stats may be called from any goroutine.
//
// Comm owns everything transport-independent — kinds, traffic and
// wait stats, pooled receive storage — and moves bytes through its
// Transport, so the same rank code runs unmodified on the goroutine and
// proc backends.
type Comm struct {
	rank, size int
	t          Transport
	rec        *Recorder // optional wait-state event recorder (may be nil)
	// ss is the transport's slot-match stamper when recording is on and
	// the transport has one (the multi-process mesh): each collective's
	// per-source matches become recorded P2PEvents, which is what lets
	// the merged trace draw cross-process send-to-receive flow arrows.
	ss slotStamper

	// statsMu guards stats: the rank goroutine mutates the counters on
	// every operation, and Stats may snapshot them from another
	// goroutine.
	statsMu sync.Mutex
	stats   Stats
	// kind is the ambient attribution for every collective; see
	// SetKind. Only the rank goroutine touches it.
	kind Kind
	// pool is the reusable receive-side storage for collectives; their
	// results alias it and are valid until the next collective.
	pool commPool
	// sendBufs are the SendBuffers registered through NewSendBuffers;
	// the abort path invalidates them so a recovering caller cannot
	// exchange half-written payloads (see scrubOnFailure).
	sendBufs []*SendBuffers
	// gt is inline storage for the goroutine backend so Run does not
	// pay an extra allocation per rank to select it.
	gt goroutineTransport
}

// Stats counts one rank's traffic. The embedded KindStats holds the
// rank's totals; ByKind splits every counter by message kind. Each
// increment lands in the totals and in exactly one kind bucket, so for
// every field the kind sum equals the total (Conserved). Stats is a
// comparable value type: snapshots copy.
type Stats struct {
	KindStats

	// ByKind is the per-kind breakdown, indexed by Kind.
	ByKind [NumKinds]KindStats
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.add(other.KindStats)
	for k := range s.ByKind {
		s.ByKind[k].add(other.ByKind[k])
	}
}

// Sub returns the field-wise delta s - prev between two snapshots of
// the same rank's counters; telemetry uses it to attribute traffic to
// the phase between the snapshots. The per-kind buckets diff too, so a
// phase slice carries its own kind breakdown.
func (s Stats) Sub(prev Stats) Stats {
	out := Stats{KindStats: s.sub(prev.KindStats)}
	for k := range s.ByKind {
		out.ByKind[k] = s.ByKind[k].sub(prev.ByKind[k])
	}
	return out
}

// BlockedNs returns the nanoseconds this rank itself spent blocked on
// communication: the synchronization skew of its collectives.
func (s Stats) BlockedNs() int64 { return s.BarrierWaitNs }

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// Stats returns a snapshot of this rank's traffic counters. Unlike the
// communication methods it is safe to call from any goroutine.
func (c *Comm) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// SetKind sets the ambient message kind and returns the previous one.
// Every collective is attributed to the ambient kind. The intended
// idiom brackets a protocol phase:
//
//	prev := c.SetKind(mpi.KindGhostUpdate)
//	defer c.SetKind(prev)
//
// Only the rank goroutine may call SetKind (same contract as the
// communication methods).
func (c *Comm) SetKind(k Kind) (prev Kind) {
	prev = c.kind
	if int(k) < NumKinds {
		c.kind = k
	}
	return prev
}

// count charges d to the totals and to the ambient kind's bucket, so
// every increment is conserved by construction.
func (c *Comm) count(d KindStats) {
	c.statsMu.Lock()
	c.stats.add(d)
	c.stats.ByKind[c.kind].add(d)
	c.statsMu.Unlock()
}

// Run executes fn as an SPMD program on size ranks and returns each
// rank's final Stats. It panics (with the original message) if any rank
// panics; other ranks blocked in communication are woken and unwound.
// Options (e.g. WithTimeout) apply to this world only.
func Run(size int, fn func(c *Comm), opts ...RunOpt) []Stats {
	if size < 1 {
		panic("mpi: Run with size < 1")
	}
	w := &World{
		size:    size,
		timeout: DeadlockTimeout,
		connect: DefaultConnectTimeout,
		epoch:   time.Now(),
		barrier: newBarrier(size),
		a2a:     make([][][]byte, size),
	}
	w.fail.init()
	for _, opt := range opts {
		opt(w)
	}
	if w.rec != nil && w.rec.NumRanks() != size {
		panic(fmt.Sprintf("mpi: recorder sized for %d ranks, world has %d", w.rec.NumRanks(), size))
	}
	stats := make([]Stats, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{rank: rank, size: size, rec: w.rec}
			c.gt = goroutineTransport{rank: rank, w: w, view: make([][]byte, size)}
			c.t = &c.gt
			defer func() {
				stats[rank] = c.Stats()
				if p := recover(); p != nil {
					w.fail.poisonWith(fmt.Errorf("rank %d: %v", rank, p))
					c.scrubOnFailure()
				}
			}()
			fn(c)
		}(r)
	}
	wg.Wait()
	if err := w.fail.failure(); err != nil {
		panic(fmt.Sprintf("mpi: world failed: %v", err))
	}
	return stats
}

// RunRank executes fn as one rank of a distributed world whose other
// ranks live elsewhere — the multi-process entry point that Run is to
// the goroutine backend. rec optionally records wait-state events for
// this rank (nil disables recording; its epoch should match the
// transport's so events and journal spans share a time base).
//
// A panic in fn (including the poison/deadlock panics of the runtime
// itself) is recovered into the returned error after aborting the
// world, so every peer unwinds with the originating cause instead of
// hanging until its watchdog fires. On clean completion the transport's
// Finish runs a final synchronization before teardown, so a rank that
// finishes early cannot poison peers still mid-algorithm.
func RunRank(t Transport, rec *Recorder, fn func(c *Comm)) (Stats, error) {
	c := &Comm{rank: t.Rank(), size: t.Size(), rec: rec, t: t}
	if rec != nil {
		if ss, ok := t.(slotStamper); ok {
			ss.StampSlotMatches(true)
			c.ss = ss
		}
	}
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("rank %d: %v", c.rank, p)
				c.scrubOnFailure()
				t.Abort(err)
			}
		}()
		fn(c)
		t.Finish()
	}()
	if err == nil {
		err = t.Err()
	}
	return c.Stats(), err
}

// slotStamper is an optional transport capability: a transport with a
// real wire can stamp each slot collective's per-source matches
// (send stamp, receive window) so recorded runs get a P2PEvent for
// every frame a collective received — the raw material of the merged
// trace's cross-process flow arrows. Stamping stays off unless RunRank enables
// it, keeping the hot path free of it on unrecorded runs.
type slotStamper interface {
	StampSlotMatches(on bool)
	// TakeSlotMatches returns the matches stamped since the last call.
	// The returned slice is reused by the next collective; the caller
	// consumes it before issuing one.
	TakeSlotMatches() []P2PEvent
}

// recordSlotMatches drains the transport's stamped matches of the
// collective that just completed into the recorder, attributed to the
// ambient kind. No-op unless RunRank found both a recorder and a
// stamping transport.
func (c *Comm) recordSlotMatches() {
	if c.ss == nil {
		return
	}
	for _, ev := range c.ss.TakeSlotMatches() {
		ev.Kind = c.kind
		c.rec.AddP2P(c.rank, ev)
	}
}

// collectiveCost charges the modeled recursive-doubling cost for one
// collective moving payload bytes, attributed to the ambient kind.
func (c *Comm) collectiveCost(payload int) {
	steps := int64(math.Ceil(math.Log2(float64(c.size))))
	if c.size == 1 {
		steps = 0
	}
	c.count(KindStats{
		Collectives: 1, CollectiveMsgs: steps, CollectiveBytes: steps * int64(payload),
	})
}

// noteSync charges one completed synchronization point that was entered
// at arrive: the arrival-to-release skew goes to BarrierWaitNs under
// the ambient kind. The last rank to arrive releases everyone, so a
// rank's skew here is exactly the time it lost waiting for its slowest
// peer. Collectives call it around each of their blocking phases so one
// logical collective contributes exactly two synchronization points on
// every backend.
func (c *Comm) noteSync(arrive time.Duration) {
	release := c.t.Now()
	c.count(KindStats{BarrierWaitNs: int64(release - arrive), BarrierSyncs: 1})
	if rec := c.rec; rec != nil {
		rec.AddBarrier(c.rank, BarrierEvent{Arrive: arrive, Release: release})
	}
}

// barrier is a reusable barrier that allocates nothing once warm: each
// rank waits on its own 1-buffered wake channel, which the last arriver
// signals, under a deadlock timer it reuses from wait to wait.
type barrier struct {
	mu     sync.Mutex
	count  int
	wake   []chan struct{}
	timers []*time.Timer // timers[r] is created by rank r's first wait; only rank r touches it
}

func newBarrier(size int) *barrier {
	b := &barrier{wake: make([]chan struct{}, size), timers: make([]*time.Timer, size)}
	for r := range b.wake {
		b.wake[r] = make(chan struct{}, 1)
	}
	return b
}

func (b *barrier) wait(fail *failState, rank int, timeout time.Duration) {
	size := len(b.wake)
	b.mu.Lock()
	b.count++
	arrived := b.count
	if arrived == size {
		b.count = 0
		for r, ch := range b.wake {
			if r == rank {
				continue
			}
			// Every other rank is waiting and took its previous token;
			// only a rank that unwound from a poisoned world can have
			// left one behind, so never block on it.
			select {
			case ch <- struct{}{}:
			default:
			}
		}
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	began := time.Now()
	deadline := b.timers[rank]
	if deadline == nil {
		deadline = time.NewTimer(timeout)
		b.timers[rank] = deadline
	} else {
		deadline.Reset(timeout)
	}
	defer stopTimer(deadline)
	select {
	case <-b.wake[rank]:
	case <-fail.poison:
		panic(fmt.Sprintf("mpi: rank %d: world poisoned while waiting in Barrier after %v: cause: %v",
			rank, time.Since(began).Round(time.Microsecond), fail.failure()))
	case <-deadline.C:
		panic(fmt.Sprintf("mpi: rank %d deadlocked in Barrier after %v (%d of %d ranks had arrived)",
			rank, time.Since(began).Round(time.Millisecond), arrived, size))
	}
}
