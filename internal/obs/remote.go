// Remote telemetry: how a multi-process run's observability crosses
// process boundaries.
//
// Each rank process journals and records its own slice of the run,
// stamped against the launcher's epoch. After the run it captures a
// RankTelemetry section (all events and the wait recorder's raw p2p and
// barrier records) into the artifact file it writes anyway; the
// launcher decodes the artifacts and MergeTelemetry rebuilds one
// journal, recorder included, on the launcher's timeline: the input
// the merged Chrome trace and the report's run wall, lost-time and
// critical-path sections need.
//
// The stamps need no clock alignment. Every process measures
// time.Since of the same epoch, decoded from JSON and so carrying no
// monotonic reading: each stamp is a difference on the host's one wall
// clock.
package obs

import (
	"time"

	"dinfomap/internal/mpi"
)

// RankTelemetry is one rank's telemetry section: what the rank's
// artifact does not already carry (the artifact holds the rank id, its
// comm stats and its transport counters).
type RankTelemetry struct {
	Events   []Event            `json:"events"`
	P2P      []mpi.P2PEvent     `json:"p2p,omitempty"`
	Barriers []mpi.BarrierEvent `json:"barriers,omitempty"`
}

// CaptureTelemetry packages rank's section from its journal and the
// journal's recorder. Call only after the rank's run has returned (the
// journal buffers are single-writer until then).
func CaptureTelemetry(j *Journal, rank int) *RankTelemetry {
	return &RankTelemetry{
		Events:   j.Rank(rank).Events(),
		P2P:      j.rec.P2P(rank),
		Barriers: j.rec.Barriers(rank),
	}
}

// MergeTelemetry assembles per-rank telemetry sections, indexed by
// rank, into one journal anchored at epoch. Every record lands on its
// rank's row, events in the journal and wait records in its recorder,
// unchanged. A missing section (a nil entry) leaves an empty row.
func MergeTelemetry(p int, epoch time.Time, sections []*RankTelemetry) *Journal {
	j := NewJournalAt(p, epoch)
	for r := 0; r < p && r < len(sections); r++ {
		sec := sections[r]
		if sec == nil {
			continue
		}
		rl := j.Rank(r)
		for _, ev := range sec.Events {
			rl.Emit(ev)
		}
		for _, pe := range sec.P2P {
			j.rec.AddP2P(r, pe)
		}
		for _, be := range sec.Barriers {
			j.rec.AddBarrier(r, be)
		}
	}
	return j
}
