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
	"time"

	"dinfomap/internal/mpi"
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
	// NumPhases is the number of phase IDs, for tables indexed by phase.
	NumPhases
)

// phaseNames holds each phase's name, indexed by PhaseID: the Figure-8
// phases under the paper's names, the stage internals in lower case.
var phaseNames = [NumPhases]string{
	PhaseFindBestModule: "FindBestModule",
	PhaseBcastDelegates: "BroadcastDelegates",
	PhaseSwapBoundary:   "SwapBoundaryInfo",
	PhaseRefreshRound1:  "refresh-round1",
	PhaseRefreshRound2:  "refresh-round2",
	PhaseMergeShuffle:   "merge-shuffle",
}

// Name returns the phase name the exporters and reports use.
func (p PhaseID) Name() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "Unknown"
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
	Msgs     int64 // messages sent (Alltoallv + modeled collective steps)
	Bytes    int64 // bytes sent (Alltoallv + modeled collective payloads)
	// WaitNs is the time this rank spent blocked on communication within
	// the span (collective synchronization skew; mpi.Stats BlockedNs
	// delta). Measured host time, nondeterministic run to run.
	WaitNs int64
}

// Dur returns the span length.
func (e Event) Dur() time.Duration { return e.End - e.Start }

// RankLog is one rank's append-only event buffer. Only that rank writes
// to it during a run; Events readers must wait until the run finishes.
type RankLog struct {
	rank   int
	epoch  time.Time
	events []Event
}

// Now returns the current offset from the journal epoch; 0 on a nil log.
func (rl *RankLog) Now() time.Duration {
	if rl == nil {
		return 0
	}
	return time.Since(rl.epoch)
}

// Emit appends ev to the log; no-op on a nil log.
func (rl *RankLog) Emit(ev Event) {
	if rl == nil {
		return
	}
	rl.events = append(rl.events, ev)
}

// Rank returns the owning rank id.
func (rl *RankLog) Rank() int { return rl.rank }

// Events returns the recorded events in emission order.
func (rl *RankLog) Events() []Event {
	if rl == nil {
		return nil
	}
	return rl.events
}

// Journal collects the per-rank logs of one run and the wait recorder
// of its ranks. Ranks never share a buffer, so appends need no
// synchronization; the epoch is read-only after construction.
type Journal struct {
	epoch time.Time
	ranks []*RankLog
	// rec receives the ranks' raw wait-state events (collective frame
	// matches, synchronization passages), stamped on the journal's
	// epoch so they compare with span times; hand it to the run with
	// Recorder.
	rec *mpi.Recorder
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
	j := newJournal(p, epoch)
	for r := range j.ranks {
		j.ranks[r] = j.newLog(r)
	}
	return j
}

// NewRankJournal returns a p-rank journal that allocates only rank r's
// log: the shape a child process of a multi-process run needs, where
// instrumented code indexes by global rank but only one rank lives in
// the process. The other slots stay nil, which every RankLog method
// treats as a valid no-op sink.
func NewRankJournal(r, p int, epoch time.Time) *Journal {
	j := newJournal(p, epoch)
	if r >= 0 && r < p {
		j.ranks[r] = j.newLog(r)
	}
	return j
}

func newJournal(p int, epoch time.Time) *Journal {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &Journal{epoch: epoch, ranks: make([]*RankLog, p), rec: mpi.NewRecorder(p, epoch)}
}

func (j *Journal) newLog(r int) *RankLog {
	return &RankLog{rank: r, epoch: j.epoch, events: make([]Event, 0, initialEventCap)}
}

// NumRanks returns the number of rank logs; 0 on a nil journal.
func (j *Journal) NumRanks() int {
	if j == nil {
		return 0
	}
	return len(j.ranks)
}

// Recorder returns the journal's wait recorder, sized for its ranks
// and anchored to its epoch: pass it to mpi.Run (mpi.WithRecorder) or
// mpi.RunRank. Nil on a nil journal, which leaves recording off.
func (j *Journal) Recorder() *mpi.Recorder {
	if j == nil {
		return nil
	}
	return j.rec
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
