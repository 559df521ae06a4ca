// Wait-state recording: the raw timing events behind cross-rank
// bottleneck analysis (package obs builds the superstep DAG, critical
// path, and lost-time attribution from them).
//
// Stats already answers "how long did this rank wait"; the Recorder
// keeps the individual events — every barrier arrival/release and, on
// the multi-process mesh, every collective frame matched with its send
// stamp — so an analyzer can answer "waiting on whom": find the last
// arriver of each synchronization point, draw matched send->recv flows,
// and walk the straggler chain that bounds wall clock.
package mpi

import "time"

// P2PEvent is one frame a collective received from one peer, as seen by
// the receiver, with enough timing to reconstruct the send->recv edge.
// Only a transport with a real wire stamps them (see slotStamper).
// Times are world-epoch relative (Recorder.Epoch).
type P2PEvent struct {
	Src   int   // sending rank
	Tag   int   // wire tag (the collective's sequence tag)
	Kind  Kind  // ambient traffic kind of the collective
	Bytes int64 // payload size

	SentAt    time.Duration // sender's stamp
	RecvStart time.Duration // when the receiver asked
	RecvEnd   time.Duration // when the match completed
}

// Blocked reports whether the receiver asked before the frame was sent.
func (e P2PEvent) Blocked() bool { return e.SentAt >= e.RecvStart }

// BarrierEvent is one rank's passage through one synchronization point:
// when it arrived and when the last arriver released everyone. Ranks
// pass synchronization points in identical order (the SPMD schedule is
// the same on every rank), so the i-th BarrierEvent of every rank
// belongs to the same logical barrier generation.
type BarrierEvent struct {
	Arrive  time.Duration
	Release time.Duration
}

// Wait returns the arrival-to-release skew.
func (e BarrierEvent) Wait() time.Duration { return e.Release - e.Arrive }

// Recorder collects per-rank wait-state events for one Run. Each rank
// appends only to its own slot (no locking, same single-writer
// discipline as Run's stats slice); read the events only after Run has
// returned. A Recorder serves one Run.
type Recorder struct {
	epoch time.Time
	p2p   [][]P2PEvent     // indexed by receiving rank
	bars  [][]BarrierEvent // indexed by rank, in sync order
}

// NewRecorder returns a Recorder for a world of the given rank count.
// epoch anchors all timestamps; pass the journal's epoch so recorder
// events and journal spans share a time base (a zero epoch means "now").
func NewRecorder(ranks int, epoch time.Time) *Recorder {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &Recorder{
		epoch: epoch,
		p2p:   make([][]P2PEvent, ranks),
		bars:  make([][]BarrierEvent, ranks),
	}
}

// Epoch returns the zero point of all recorded timestamps.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// NumRanks returns the rank count the recorder was sized for.
func (r *Recorder) NumRanks() int { return len(r.p2p) }

// P2P returns rank's recorded frame matches, in receive order. The
// slice is the recorder's own; treat it as read-only.
func (r *Recorder) P2P(rank int) []P2PEvent { return r.p2p[rank] }

// Barriers returns rank's synchronization passages, in sync order.
func (r *Recorder) Barriers(rank int) []BarrierEvent { return r.bars[rank] }

// AddP2P appends a frame-match event to rank's log. The runtime calls
// it from the rank's own goroutine; tests use it to craft scenarios.
func (r *Recorder) AddP2P(rank int, ev P2PEvent) {
	r.p2p[rank] = append(r.p2p[rank], ev)
}

// AddBarrier appends a synchronization passage to rank's log.
func (r *Recorder) AddBarrier(rank int, ev BarrierEvent) {
	r.bars[rank] = append(r.bars[rank], ev)
}

// WithRecorder attaches rec to the run: every synchronization passage
// is recorded, and the world's clock is aligned to rec's epoch so
// recorded times compare directly with journal spans. Run panics if rec's rank count does not match the world size. A nil
// rec leaves recording off (the default; recording appends per-rank
// slices and is kept out of benchmarked paths).
func WithRecorder(rec *Recorder) RunOpt {
	return func(w *World) {
		if rec == nil {
			return
		}
		w.rec = rec
		w.epoch = rec.epoch
	}
}
