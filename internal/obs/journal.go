// Package obs is the run-telemetry layer behind the paper's evaluation
// figures: a per-rank event journal recording what every simulated rank
// did in every synchronized sweep, a Chrome trace-event exporter so a
// run opens directly in Perfetto / chrome://tracing, and a structured
// JSON run report with a stable schema.
//
// The journal is designed for the hot path: each rank appends fixed-size
// Event values to its own preallocated buffer — no locks, no interface
// boxing, no per-event allocation (amortized). A nil *Journal (and the
// nil *RankLog it hands out) is a valid no-op sink, so instrumented code
// needs no "is telemetry on" branches beyond the nil receiver check
// inside the methods.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"dinfomap/internal/mpi"
	"dinfomap/internal/trace"
)

// PhaseID identifies one instrumented phase compactly; the hot path
// records these instead of strings.
type PhaseID uint8

// The Figure-8 phases of the synchronized clustering loop, then the
// Algorithm 3 / Section 3.5 stage internals: refresh rounds 1-2, which
// the figure's Other bucket sums (round 2 also carries the MDL
// reduction and the convergence vote), and the merge shuffle.
const (
	PhaseFindBestModule PhaseID = iota
	PhaseBcastDelegates
	PhaseSwapBoundary
	PhaseRefreshRound1
	PhaseRefreshRound2
	PhaseMergeShuffle
	// PhaseOuterIter is an outer-iteration boundary marker: a
	// zero-duration event emitted when a rank finishes one outer
	// iteration, whose counters carry that iteration's traffic delta.
	PhaseOuterIter
	// NumPhases is the number of phase IDs, for tables indexed by phase.
	NumPhases
)

// Name returns the phase name used by package trace and the exporters.
func (p PhaseID) Name() string {
	switch p {
	case PhaseFindBestModule:
		return trace.PhaseFindBestModule
	case PhaseBcastDelegates:
		return trace.PhaseBcastDelegates
	case PhaseSwapBoundary:
		return trace.PhaseSwapBoundary
	case PhaseRefreshRound1:
		return trace.PhaseRefreshRound1
	case PhaseRefreshRound2:
		return trace.PhaseRefreshRound2
	case PhaseMergeShuffle:
		return trace.PhaseMergeShuffle
	case PhaseOuterIter:
		return trace.PhaseOuterIter
	}
	return "Unknown"
}

// PhaseNames lists the journal phase names in PhaseID order.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	for p := PhaseID(0); p < NumPhases; p++ {
		out[p] = p.Name()
	}
	return out
}

// Event is one journal record: a span of one phase inside one
// synchronized iteration, plus the counters measured within it. Events
// are plain values so a rank's log is a flat, cache-friendly slice.
type Event struct {
	Stage uint8  // clustering stage: 1 (with delegates) or 2 (merged)
	Outer uint16 // outer merge round; stage 1 is round 0
	Iter  int32  // synchronized sweep within the stage; -1 = setup refresh
	Phase PhaseID

	// Start and End are host wall-clock offsets from the journal epoch.
	Start, End time.Duration

	Moves    int32 // vertex moves applied in the span
	Deferred int32 // cross-boundary moves deferred by damping
	Ops      int64 // counted work (delta-L evals, candidates, ghosts, modules)
	Msgs     int64 // messages sent (p2p + modeled collective steps)
	Bytes    int64 // bytes sent (p2p + modeled collective payloads)
	// WaitNs is the time this rank spent blocked on communication within
	// the span (late senders + barrier/collective skew; mpi.Stats
	// BlockedNs delta). Measured host time, nondeterministic run to run.
	WaitNs int64
}

// Dur returns the span length.
func (e Event) Dur() time.Duration { return e.End - e.Start }

// RankLog is one rank's append-only event buffer. Only that rank writes
// to it during a run; Events readers must wait until the run finishes.
// Live observers use the journal's Subscribe tap and Status snapshot
// instead, which read only the atomically-published fields.
type RankLog struct {
	rank   int
	epoch  time.Time
	events []Event

	// j points back at the owning journal so Emit can publish to live
	// subscribers; nil for standalone logs (exporter tests).
	j *Journal
	// emitted counts events atomically so Status can be read mid-run
	// (len(events) is owned by the rank goroutine alone).
	emitted atomic.Int64
	// last publishes a copy of the most recent event for Status.
	last atomic.Pointer[Event]
	// comm publishes the rank's latest cumulative mpi.Stats snapshot so
	// live observers (the metrics exposition) can read per-kind traffic
	// without touching the Comm from another goroutine mid-increment.
	comm atomic.Pointer[mpi.Stats]
}

// Now returns the current offset from the journal epoch; 0 on a nil log.
func (rl *RankLog) Now() time.Duration {
	if rl == nil {
		return 0
	}
	return time.Since(rl.epoch)
}

// Emit appends ev to the log; no-op on a nil log. When the owning
// journal has live subscribers the event is also offered to each tap,
// without ever blocking: a slow consumer's ring fills and further
// events are counted as dropped instead.
func (rl *RankLog) Emit(ev Event) {
	if rl == nil {
		return
	}
	rl.events = append(rl.events, ev)
	seq := rl.emitted.Add(1)
	evCopy := ev
	rl.last.Store(&evCopy)
	if rl.j != nil {
		rl.j.publish(StreamEvent{Rank: rl.rank, Seq: seq, Event: ev})
	}
}

// Rank returns the owning rank id.
func (rl *RankLog) Rank() int { return rl.rank }

// PublishComm publishes a cumulative mpi.Stats snapshot for live
// observers. The rank calls it at sweep and iteration boundaries; the
// store is one atomic pointer swap, so it never blocks the rank.
// No-op on a nil log.
func (rl *RankLog) PublishComm(s mpi.Stats) {
	if rl == nil {
		return
	}
	cp := s
	rl.comm.Store(&cp)
}

// CommSnapshot returns the most recently published cumulative comm
// stats and whether any snapshot has been published yet. Safe from any
// goroutine at any time.
func (rl *RankLog) CommSnapshot() (mpi.Stats, bool) {
	if rl == nil {
		return mpi.Stats{}, false
	}
	if p := rl.comm.Load(); p != nil {
		return *p, true
	}
	return mpi.Stats{}, false
}

// Events returns the recorded events in emission order.
func (rl *RankLog) Events() []Event {
	if rl == nil {
		return nil
	}
	return rl.events
}

// Journal collects the per-rank logs of one run. Ranks never share a
// buffer, so appends need no synchronization; the epoch is read-only
// after construction, and the live-streaming subscriber list (see
// stream.go) is touched on the hot path only as one atomic pointer
// load, nil when nobody is watching.
type Journal struct {
	epoch time.Time
	ranks []*RankLog

	// taps is the current subscriber list; Emit loads it once per event.
	// Subscribe/Unsubscribe swap in a fresh slice under tapMu.
	taps atomic.Pointer[[]*Tap]
	// tapMu serializes subscriber-list mutation and Finish.
	tapMu sync.Mutex
	// finished flips once when the run completes (Finish); taps close
	// and later subscribers observe an immediately-closed stream.
	finished atomic.Bool
	// dropped counts events lost to slow subscribers across all taps
	// over the journal's lifetime.
	dropped atomic.Int64
}

// initialEventCap preallocates each rank's buffer; a typical run emits
// 4 events per synchronized sweep across a few dozen sweeps.
const initialEventCap = 1024

// NewJournal returns a journal for p ranks with the epoch set to now.
func NewJournal(p int) *Journal {
	return NewJournalAt(p, time.Time{})
}

// NewJournalAt returns a journal for p ranks anchored to an explicit
// epoch (zero means now). A multi-process launcher passes its own epoch
// to every child so all journals stamp on one shared wall-clock zero
// point and cross-process spans are comparable.
func NewJournalAt(p int, epoch time.Time) *Journal {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	j := &Journal{epoch: epoch, ranks: make([]*RankLog, p)}
	for r := range j.ranks {
		j.ranks[r] = &RankLog{rank: r, epoch: j.epoch, j: j, events: make([]Event, 0, initialEventCap)}
	}
	return j
}

// NewRankJournal returns a p-rank journal that allocates only rank r's
// log: the shape a child process of a multi-process run needs, where
// instrumented code indexes by global rank but only one rank lives in
// the process. The other slots stay nil, which every RankLog method
// treats as a valid no-op sink; Status reports them as empty.
func NewRankJournal(r, p int, epoch time.Time) *Journal {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	j := &Journal{epoch: epoch, ranks: make([]*RankLog, p)}
	if r >= 0 && r < p {
		j.ranks[r] = &RankLog{rank: r, epoch: j.epoch, j: j, events: make([]Event, 0, initialEventCap)}
	}
	return j
}

// NumRanks returns the number of rank logs; 0 on a nil journal.
func (j *Journal) NumRanks() int {
	if j == nil {
		return 0
	}
	return len(j.ranks)
}

// Epoch returns the journal's zero point. Pass it to mpi.NewRecorder so
// recorded communication events and journal spans share one time base.
// Zero on a nil journal.
func (j *Journal) Epoch() time.Time {
	if j == nil {
		return time.Time{}
	}
	return j.epoch
}

// Subscribers returns the number of live taps currently attached.
func (j *Journal) Subscribers() int {
	if j == nil {
		return 0
	}
	if taps := j.taps.Load(); taps != nil {
		return len(*taps)
	}
	return 0
}

// Rank returns rank r's log. Nil-safe: a nil journal yields a nil log,
// which swallows emissions.
func (j *Journal) Rank(r int) *RankLog {
	if j == nil || r < 0 || r >= len(j.ranks) {
		return nil
	}
	return j.ranks[r]
}

// NumEvents returns the total event count across ranks.
func (j *Journal) NumEvents() int {
	n := 0
	for r := 0; r < j.NumRanks(); r++ {
		n += len(j.Rank(r).Events())
	}
	return n
}

// PhaseWall sums each phase's measured wall time on rank r.
func (j *Journal) PhaseWall(r int) map[string]time.Duration {
	out := make(map[string]time.Duration, NumPhases)
	for _, ev := range j.Rank(r).Events() {
		out[ev.Phase.Name()] += ev.Dur()
	}
	return out
}
