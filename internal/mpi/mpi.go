// Package mpi is an in-process message-passing runtime that plays the
// role MPI plays in the paper's C++ implementation. Each rank runs as a
// goroutine executing the same SPMD function; ranks communicate only
// through tagged point-to-point messages and collectives (Barrier, Bcast,
// Allreduce, Allgather, Alltoallv), never through shared memory.
//
// Every payload crosses the "network" as a []byte, so the per-rank byte
// and message counters are exact: the communication-volume results in the
// reproduction (Figures 7-8) measure real serialized traffic, not
// estimates. Collective costs are additionally modeled with a
// recursive-doubling term (log2 p messages per call) for the alpha-beta
// cost model in package trace.
//
// The runtime is deliberately synchronous and deterministic-friendly:
// sends are buffered (never block), receives match on (source, tag), and
// a watchdog converts deadlocks into panics with diagnostics instead of
// hangs.
package mpi

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// DeadlockTimeout is the default for how long a Recv or collective may
// block before the runtime declares a deadlock and panics. It is read
// once when a World is created; to lower it for a single run (as tests
// do) pass WithTimeout to Run instead of mutating this variable, which
// would race with concurrently running worlds.
var DeadlockTimeout = 120 * time.Second

// message is one point-to-point payload in flight. sentAt is the
// sender's monotonic stamp (world epoch relative), taken just before the
// message entered the inbox; Recv compares it against the receiver's own
// ask time to attribute any wait to a late sender or a late receiver.
type message struct {
	src, tag int
	data     []byte
	sentAt   time.Duration
}

// inbox is an unbounded mailbox with (src, tag) matching.
type inbox struct {
	mu      sync.Mutex
	queue   []message
	arrived chan struct{} // 1-buffered doorbell
}

func newInbox() *inbox {
	return &inbox{arrived: make(chan struct{}, 1)}
}

func (ib *inbox) put(m message) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, m)
	ib.mu.Unlock()
	select {
	case ib.arrived <- struct{}{}:
	default:
	}
}

// take removes and returns the first message matching (src, tag);
// src == AnySource matches any sender. ok is false when nothing matches.
func (ib *inbox) take(src, tag int) (message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for i, m := range ib.queue {
		if (src == AnySource || m.src == src) && m.tag == tag {
			// Shift the tail down and zero the vacated slot: a plain
			// append(queue[:i], queue[i+1:]...) would leave a second
			// reference to the last message in the backing array,
			// retaining its payload for the inbox's lifetime.
			n := len(ib.queue)
			copy(ib.queue[i:], ib.queue[i+1:])
			ib.queue[n-1] = message{}
			ib.queue = ib.queue[:n-1]
			return m, true
		}
	}
	return message{}, false
}

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// World owns the shared state of one simulated cluster run. It also
// doubles as the options bag for RunOpts: DialProc applies them to a
// detached World to pick up timeout/connect/recorder settings for the
// multi-process backend.
type World struct {
	size    int
	timeout time.Duration // deadlock watchdog; immutable after Run starts
	connect time.Duration // proc backend's dial+handshake budget (WithConnectTimeout)
	epoch   time.Time     // zero point of all message/barrier timestamps
	rec     *Recorder     // optional wait-state event recorder (may be nil)
	inboxes []*inbox
	barrier *barrier
	slots   [][]byte   // collective exchange slots, one per rank
	a2a     [][][]byte // alltoallv slots
	fail    failState
}

// now returns the world's monotonic clock: time since the epoch. All
// message stamps and barrier arrival/release times share it, so they
// are directly comparable across ranks (one process, one clock).
func (w *World) now() time.Duration { return time.Since(w.epoch) }

// RunOpt configures one Run before its ranks start.
type RunOpt func(*World)

// WithTimeout sets this world's deadlock timeout, overriding the
// package default DeadlockTimeout for this run only. d <= 0 keeps the
// default. It governs steady-state waits — Recv, Barrier, and the
// blocking phases of collectives — once the world is up; the proc
// backend's connection establishment is budgeted separately by
// WithConnectTimeout.
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

func (w *World) poisonWith(err error) { w.fail.poisonWith(err) }

// Comm is one rank's endpoint into a world. Communication methods are
// not safe for concurrent use by multiple goroutines (like an MPI
// communicator handle), but Stats may be called from any goroutine —
// live observers snapshot a running rank's counters through it.
//
// Comm owns everything transport-independent — tags, kinds, traffic
// stats, wait-state classification, pooled receive storage — and moves
// bytes through its Transport, so the same rank code runs unmodified
// on the goroutine and proc backends.
type Comm struct {
	rank, size int
	t          Transport
	rec        *Recorder // optional wait-state event recorder (may be nil)
	// ss is the transport's slot-match stamper when recording is on and
	// the transport has one (the multi-process mesh): each collective's
	// per-source matches become recorded p2p events, which is what lets
	// the merged trace draw cross-process send-to-receive flow arrows.
	ss slotStamper

	// statsMu guards stats: the rank goroutine mutates the counters on
	// every operation while observers (status/metrics endpoints) take
	// snapshots concurrently.
	statsMu sync.Mutex
	stats   Stats
	// kind is the ambient attribution for collectives and for p2p tags
	// without kind bits; see SetKind. Only the rank goroutine touches it.
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

// Stats counts one rank's traffic. Collective* fields use the
// recursive-doubling model: each collective costs ceil(log2 p) messages
// of the payload size. ByKind splits every counter by message kind;
// each increment lands in the totals and in exactly one kind bucket, so
// for every field the kind sum equals the total (Conserved). Stats is a
// comparable value type: snapshots copy.
type Stats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
	Collectives          int64
	CollectiveBytes      int64 // modeled: payload * ceil(log2 p) per call
	CollectiveMsgs       int64 // modeled: ceil(log2 p) per call

	// Wait-state counters (host wall-clock nanoseconds): where this rank
	// lost time blocked on communication, and where its peers lost time
	// waiting for it. Unlike the traffic counters these are measured, not
	// modeled, and are nondeterministic run to run.

	// RecvBlockedNs is time spent blocked in Recv because the matching
	// message had not been sent yet (late sender).
	RecvBlockedNs int64
	// RecvQueueNs is inbox residency of received messages: how long each
	// matched message sat queued before this rank asked for it (late
	// receiver — the peer's send was early, this rank was busy).
	RecvQueueNs int64
	// RecvsBlocked counts the receives that blocked on a late sender.
	RecvsBlocked int64
	// BarrierWaitNs is arrival-to-release skew summed over barrier and
	// collective synchronization points: time between this rank arriving
	// and the last rank releasing everyone.
	BarrierWaitNs int64
	// BarrierSyncs counts synchronization points entered (Barrier is one;
	// each blocking collective contributes its internal syncs).
	BarrierSyncs int64

	// ByKind is the per-kind breakdown, indexed by Kind.
	ByKind [NumKinds]KindStats
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
	s.Collectives += other.Collectives
	s.CollectiveBytes += other.CollectiveBytes
	s.CollectiveMsgs += other.CollectiveMsgs
	s.RecvBlockedNs += other.RecvBlockedNs
	s.RecvQueueNs += other.RecvQueueNs
	s.RecvsBlocked += other.RecvsBlocked
	s.BarrierWaitNs += other.BarrierWaitNs
	s.BarrierSyncs += other.BarrierSyncs
	for k := range s.ByKind {
		s.ByKind[k].add(other.ByKind[k])
	}
}

// Sub returns the field-wise delta s - prev between two snapshots of
// the same rank's counters; telemetry uses it to attribute traffic to
// the phase between the snapshots. The per-kind buckets diff too, so a
// phase slice carries its own kind breakdown.
func (s Stats) Sub(prev Stats) Stats {
	out := Stats{
		BytesSent:       s.BytesSent - prev.BytesSent,
		BytesRecv:       s.BytesRecv - prev.BytesRecv,
		MsgsSent:        s.MsgsSent - prev.MsgsSent,
		MsgsRecv:        s.MsgsRecv - prev.MsgsRecv,
		Collectives:     s.Collectives - prev.Collectives,
		CollectiveBytes: s.CollectiveBytes - prev.CollectiveBytes,
		CollectiveMsgs:  s.CollectiveMsgs - prev.CollectiveMsgs,
		RecvBlockedNs:   s.RecvBlockedNs - prev.RecvBlockedNs,
		RecvQueueNs:     s.RecvQueueNs - prev.RecvQueueNs,
		RecvsBlocked:    s.RecvsBlocked - prev.RecvsBlocked,
		BarrierWaitNs:   s.BarrierWaitNs - prev.BarrierWaitNs,
		BarrierSyncs:    s.BarrierSyncs - prev.BarrierSyncs,
	}
	for k := range s.ByKind {
		out.ByKind[k] = s.ByKind[k].sub(prev.ByKind[k])
	}
	return out
}

// TotalBytes returns all bytes attributed to this rank (p2p + modeled
// collective traffic).
func (s Stats) TotalBytes() int64 {
	return s.BytesSent + s.BytesRecv + s.CollectiveBytes
}

// BlockedNs returns the nanoseconds this rank itself spent blocked on
// communication: late senders plus barrier/collective skew. Queue
// residency is excluded — it measures the peer's lateness relative to
// this rank, not time this rank lost.
func (s Stats) BlockedNs() int64 { return s.RecvBlockedNs + s.BarrierWaitNs }

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// Stats returns a snapshot of this rank's traffic counters. Unlike the
// communication methods it is safe to call from any goroutine, so live
// observers can sample a rank mid-run without racing its counters.
func (c *Comm) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// SetKind sets the ambient message kind and returns the previous one.
// Collectives (which carry no tag) and p2p messages whose tag has no
// kind bits are attributed to the ambient kind. The intended idiom
// brackets a protocol phase:
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

// kindForTag resolves a p2p tag to its traffic kind: the tag's packed
// kind bits when present, the ambient kind otherwise.
func (c *Comm) kindForTag(tag int) Kind {
	if k := KindOfTag(tag); k != KindOther {
		return k
	}
	return c.kind
}

// countSend attributes one outgoing p2p message to kind k.
func (c *Comm) countSend(k Kind, bytes int64) {
	c.statsMu.Lock()
	c.stats.MsgsSent++
	c.stats.BytesSent += bytes
	c.stats.ByKind[k].MsgsSent++
	c.stats.ByKind[k].BytesSent += bytes
	c.statsMu.Unlock()
}

// countRecv attributes one incoming p2p message to kind k, together
// with its wait-state classification (see ClassifyRecvWait).
func (c *Comm) countRecv(k Kind, bytes, blockedNs, queueNs int64, blocked bool) {
	c.statsMu.Lock()
	c.stats.MsgsRecv++
	c.stats.BytesRecv += bytes
	c.stats.RecvBlockedNs += blockedNs
	c.stats.RecvQueueNs += queueNs
	b := &c.stats.ByKind[k]
	b.MsgsRecv++
	b.BytesRecv += bytes
	b.RecvBlockedNs += blockedNs
	b.RecvQueueNs += queueNs
	if blocked {
		c.stats.RecvsBlocked++
		b.RecvsBlocked++
	}
	c.statsMu.Unlock()
}

// countBarrier attributes one synchronization point's wait to the
// ambient kind.
func (c *Comm) countBarrier(waitNs int64) {
	c.statsMu.Lock()
	c.stats.BarrierWaitNs += waitNs
	c.stats.BarrierSyncs++
	b := &c.stats.ByKind[c.kind]
	b.BarrierWaitNs += waitNs
	b.BarrierSyncs++
	c.statsMu.Unlock()
}

// countExchange attributes an alltoallv-style exchange (real p2p
// counters on both sides, no modeled collective term) to kind k.
func (c *Comm) countExchange(k Kind, msgsSent, bytesSent, msgsRecv, bytesRecv int64) {
	c.statsMu.Lock()
	c.stats.MsgsSent += msgsSent
	c.stats.BytesSent += bytesSent
	c.stats.MsgsRecv += msgsRecv
	c.stats.BytesRecv += bytesRecv
	b := &c.stats.ByKind[k]
	b.MsgsSent += msgsSent
	b.BytesSent += bytesSent
	b.MsgsRecv += msgsRecv
	b.BytesRecv += bytesRecv
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
		inboxes: make([]*inbox, size),
		barrier: newBarrier(size),
		slots:   make([][]byte, size),
		a2a:     make([][][]byte, size),
	}
	w.fail.init()
	for _, opt := range opts {
		opt(w)
	}
	if w.rec != nil && w.rec.NumRanks() != size {
		panic(fmt.Sprintf("mpi: recorder sized for %d ranks, world has %d", w.rec.NumRanks(), size))
	}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	stats := make([]Stats, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{rank: rank, size: size, rec: w.rec}
			c.gt = goroutineTransport{rank: rank, w: w}
			c.t = &c.gt
			defer func() {
				stats[rank] = c.Stats()
				if p := recover(); p != nil {
					w.poisonWith(fmt.Errorf("rank %d: %v", rank, p))
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

// Send delivers data to rank dst with the given tag. It never blocks
// (buffered semantics). The payload is copied, so the caller may reuse
// the slice.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, c.size))
	}
	c.countSend(c.kindForTag(tag), int64(len(data)))
	c.t.Send(dst, tag, data)
}

// Recv blocks until a message with matching (src, tag) arrives and
// returns its payload and actual source. src may be AnySource.
//
// The elapsed time is split into wait-state components by comparing the
// message's send stamp against this rank's ask time (ClassifyRecvWait):
// a message sent after the ask charges blocked wait (late sender), one
// queued before the ask charges queue residency (late receiver).
func (c *Comm) Recv(src, tag int) (data []byte, from int) {
	start := c.t.Now()
	data, from, sentAt := c.t.Recv(src, tag)
	end := c.t.Now()
	k := c.kindForTag(tag)
	blockedNs, queueNs, blocked := ClassifyRecvWait(start, end, sentAt)
	c.countRecv(k, int64(len(data)), blockedNs, queueNs, blocked)
	if rec := c.rec; rec != nil {
		rec.AddP2P(c.rank, P2PEvent{
			Src: from, Tag: tag, Kind: k,
			Bytes:  int64(len(data)),
			SentAt: sentAt, RecvStart: start, RecvEnd: end,
		})
	}
	return data, from
}

// slotStamper is an optional transport capability: a transport with a
// real wire can stamp each slot collective's per-source matches
// (send stamp, receive window) so recorded runs get p2p events for
// collective traffic too — the raw material of the merged trace's
// cross-process flow arrows. Stamping stays off unless RunRank enables
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
	bytes := steps * int64(payload)
	c.statsMu.Lock()
	c.stats.Collectives++
	c.stats.CollectiveMsgs += steps
	c.stats.CollectiveBytes += bytes
	b := &c.stats.ByKind[c.kind]
	b.Collectives++
	b.CollectiveMsgs += steps
	b.CollectiveBytes += bytes
	c.statsMu.Unlock()
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.collectiveCost(0)
	arrive := c.t.Now()
	c.t.Sync()
	c.noteSync(arrive)
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
	c.countBarrier(int64(release - arrive))
	if rec := c.rec; rec != nil {
		rec.AddBarrier(c.rank, BarrierEvent{Arrive: arrive, Release: release})
	}
}

// barrier is a reusable generation barrier.
type barrier struct {
	mu    sync.Mutex
	size  int
	count int
	gen   chan struct{}
}

func newBarrier(size int) *barrier {
	return &barrier{size: size, gen: make(chan struct{})}
}

func (b *barrier) wait(fail *failState, rank int, timeout time.Duration) {
	b.mu.Lock()
	ch := b.gen
	b.count++
	arrived := b.count
	if b.count == b.size {
		b.count = 0
		b.gen = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	began := time.Now()
	deadline := time.NewTimer(timeout)
	defer stopTimer(deadline)
	select {
	case <-ch:
	case <-fail.poison:
		panic(fmt.Sprintf("mpi: rank %d: world poisoned while waiting in Barrier after %v: cause: %v",
			rank, time.Since(began).Round(time.Microsecond), fail.failure()))
	case <-deadline.C:
		panic(fmt.Sprintf("mpi: rank %d deadlocked in Barrier after %v (%d of %d ranks had arrived)",
			rank, time.Since(began).Round(time.Millisecond), arrived, b.size))
	}
}
