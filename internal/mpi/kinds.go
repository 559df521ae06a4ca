package mpi

// Kind classifies one unit of traffic by the protocol message it
// carries, so per-rank counters can attribute bytes on the wire to the
// paper's message interfaces (Module_Info, delegate candidates, ghost
// updates, ...) instead of one aggregate number. The taxonomy is fixed
// and small on purpose: Stats carries one KindStats bucket per Kind as
// a flat array, which keeps Stats a comparable value type and makes the
// conservation invariant (kind sums == totals) cheap to verify.
//
// Every collective is charged to the Comm's ambient kind, set by
// SetKind at protocol-phase boundaries.
type Kind uint8

// The message kinds of the distributed Infomap protocol. KindOther is
// deliberately the zero value: collectives issued before any SetKind
// land there, never in a named bucket they do not belong to.
const (
	// KindOther is unclassified traffic (zero value).
	KindOther Kind = iota
	// KindModuleInfo is authoritative module statistics delivered to
	// subscribers (the paper's List 1 / Module_Info interface), with the
	// MDL partial sums and move vote every payload opens with.
	KindModuleInfo
	// KindHubCandidate is the exact delta-L evaluation round of delegate
	// moves (BroadcastDelegates round B).
	KindHubCandidate
	// KindGhostUpdate is boundary-vertex community updates shipped to
	// ghosting ranks, and the delegate move proposals that ride in the
	// same exchange (SwapBoundaryInfo).
	KindGhostUpdate
	// KindModulePartial is per-module partial statistics shuffled to
	// module home ranks (Algorithm 3 round 1).
	KindModulePartial
	// KindMergeShuffle is contracted arcs redistributed to their merged-
	// graph owners (Section 3.5 graph merging).
	KindMergeShuffle
	// KindAssignment is community-assignment gathers (level projection
	// and the final full-assignment allgather).
	KindAssignment
	// KindSetup is preprocessing exchanges: ghost registration and the
	// flow/strength gathers that build a level.
	KindSetup
	// KindCollective is control collectives: the live vertex count that
	// opens a level.
	KindCollective
	// NumKinds is the number of kinds; Stats.ByKind has this length.
	NumKinds int = iota
)

// kindNames is indexed by Kind; these are the stable label names used
// by the run report (comms.by_kind and every other per-kind map).
var kindNames = [NumKinds]string{
	"other",
	"module_info",
	"hub_candidate",
	"ghost_update",
	"module_partial",
	"merge_shuffle",
	"assignment",
	"setup",
	"collective",
}

// String returns the kind's stable label name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "other"
}

// KindStats is one set of traffic counters: a rank's totals (embedded
// in Stats) or one kind's share of them. For every field, summing
// KindStats over all kinds equals the total (the conservation
// invariant: every counter increment lands in exactly one kind bucket).
// BytesSent/BytesRecv and MsgsSent/MsgsRecv are Alltoallv's real
// payloads between distinct ranks; Collective* fields use the
// recursive-doubling model: each allgather-based collective costs
// ceil(log2 p) messages of the payload size.
type KindStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
	Collectives          int64
	CollectiveBytes      int64 // modeled: payload * ceil(log2 p) per call
	CollectiveMsgs       int64 // modeled: ceil(log2 p) per call

	// BarrierWaitNs is where the rank lost time blocked on
	// communication (host wall-clock nanoseconds): arrival-to-release
	// skew summed over the synchronization points of its collectives,
	// the time between this rank arriving and the last rank releasing
	// everyone. Unlike the traffic counters it is measured, not
	// modeled, and is nondeterministic run to run. Skew follows the
	// ambient kind at the synchronization point.
	BarrierWaitNs int64
	// BarrierSyncs counts synchronization points entered (each
	// collective contributes two).
	BarrierSyncs int64
}

// add accumulates other into s.
func (s *KindStats) add(other KindStats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
	s.Collectives += other.Collectives
	s.CollectiveBytes += other.CollectiveBytes
	s.CollectiveMsgs += other.CollectiveMsgs
	s.BarrierWaitNs += other.BarrierWaitNs
	s.BarrierSyncs += other.BarrierSyncs
}

// sub returns the field-wise delta s - prev.
func (s KindStats) sub(prev KindStats) KindStats {
	return KindStats{
		BytesSent:       s.BytesSent - prev.BytesSent,
		BytesRecv:       s.BytesRecv - prev.BytesRecv,
		MsgsSent:        s.MsgsSent - prev.MsgsSent,
		MsgsRecv:        s.MsgsRecv - prev.MsgsRecv,
		Collectives:     s.Collectives - prev.Collectives,
		CollectiveBytes: s.CollectiveBytes - prev.CollectiveBytes,
		CollectiveMsgs:  s.CollectiveMsgs - prev.CollectiveMsgs,
		BarrierWaitNs:   s.BarrierWaitNs - prev.BarrierWaitNs,
		BarrierSyncs:    s.BarrierSyncs - prev.BarrierSyncs,
	}
}

// TotalBytes returns all bytes counted here (Alltoallv payloads +
// modeled collective traffic).
func (s KindStats) TotalBytes() int64 {
	return s.BytesSent + s.BytesRecv + s.CollectiveBytes
}

// KindSums re-derives the aggregate totals from the per-kind buckets.
// By the conservation invariant it equals the Stats totals field-for-
// field; Conserved and the tests use it to verify that.
func (s Stats) KindSums() KindStats {
	var sum KindStats
	for k := range s.ByKind {
		sum.add(s.ByKind[k])
	}
	return sum
}

// Conserved reports whether the per-kind buckets sum to the aggregate
// totals on every field.
func (s Stats) Conserved() bool { return s.KindSums() == s.KindStats }
