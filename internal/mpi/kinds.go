package mpi

// Kind classifies one unit of traffic by the protocol message it
// carries, so per-rank counters can attribute bytes on the wire to the
// paper's message interfaces (Module_Info, delegate candidates, ghost
// updates, ...) instead of one aggregate number. The taxonomy is fixed
// and small on purpose: Stats carries one KindStats bucket per Kind as
// a flat array, which keeps Stats a comparable value type and makes the
// conservation invariant (kind sums == totals) cheap to verify.
//
// Attribution works two ways:
//
//   - point-to-point Send/Recv derive the kind from the message tag
//     (TagFor packs a Kind into the tag's upper bits; plain small tags
//     carry kind 0 = KindOther);
//   - collectives, which have no tag, are charged to the Comm's ambient
//     kind, set by SetKind at protocol-phase boundaries.
type Kind uint8

// The message kinds of the distributed Infomap protocol. KindOther is
// deliberately the zero value: legacy tags without kind bits and
// collectives issued before any SetKind land there, never in a named
// bucket they do not belong to.
const (
	// KindOther is unclassified traffic (zero value; legacy tags).
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
	// KindCollective is control collectives: barriers and the live
	// vertex count that opens a level.
	KindCollective
	// NumKinds is the number of kinds; Stats.ByKind has this length.
	NumKinds int = iota
)

// kindNames is indexed by Kind; these are the stable wire/label names
// used by the run report (comms.by_kind) and the Prometheus exposition.
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

// KindNames returns the label names of all kinds in Kind order (a fresh
// slice; callers may reorder it).
func KindNames() []string {
	out := make([]string, NumKinds)
	copy(out, kindNames[:])
	return out
}

// Tag packing: the upper bits of a message tag carry the kind, the low
// kindShift bits the caller's sequence/tag value. Plain tags below
// 1<<kindShift have kind bits zero and classify as KindOther, so all
// pre-existing tag usage keeps its meaning.
const kindShift = 24

// TagFor packs kind k and a caller tag (0 <= tag < 1<<24) into one
// wire tag. Send/Recv attribute the message to k.
func TagFor(k Kind, tag int) int {
	if tag < 0 || tag >= 1<<kindShift {
		panic("mpi: TagFor tag out of range")
	}
	return int(k)<<kindShift | tag
}

// KindOfTag extracts the kind packed into tag; tags without valid kind
// bits (including all plain small tags) classify as KindOther.
func KindOfTag(tag int) Kind {
	if tag < 0 {
		return KindOther
	}
	k := tag >> kindShift
	if k <= 0 || k >= NumKinds {
		return KindOther
	}
	return Kind(k)
}

// KindStats counts one kind's share of a rank's traffic; the fields
// mirror Stats' totals. For every field, summing KindStats over all
// kinds equals the Stats total (the conservation invariant: every
// counter increment lands in exactly one kind bucket).
type KindStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
	Collectives          int64
	CollectiveBytes      int64
	CollectiveMsgs       int64

	// Wait-state counters, mirroring Stats: receive waits follow the
	// message's resolved kind, barrier/collective skew follows the
	// ambient kind at the synchronization point.
	RecvBlockedNs int64
	RecvQueueNs   int64
	RecvsBlocked  int64
	BarrierWaitNs int64
	BarrierSyncs  int64
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
	s.RecvBlockedNs += other.RecvBlockedNs
	s.RecvQueueNs += other.RecvQueueNs
	s.RecvsBlocked += other.RecvsBlocked
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
		RecvBlockedNs:   s.RecvBlockedNs - prev.RecvBlockedNs,
		RecvQueueNs:     s.RecvQueueNs - prev.RecvQueueNs,
		RecvsBlocked:    s.RecvsBlocked - prev.RecvsBlocked,
		BarrierWaitNs:   s.BarrierWaitNs - prev.BarrierWaitNs,
		BarrierSyncs:    s.BarrierSyncs - prev.BarrierSyncs,
	}
}

// TotalBytes returns all bytes attributed to this kind (p2p + modeled
// collective traffic), the per-kind counterpart of Stats.TotalBytes.
func (s KindStats) TotalBytes() int64 {
	return s.BytesSent + s.BytesRecv + s.CollectiveBytes
}

// KindSums re-derives the aggregate totals from the per-kind buckets.
// By the conservation invariant it equals the Stats totals field-for-
// field; tests and the metrics exposition use it to verify that.
func (s Stats) KindSums() KindStats {
	var sum KindStats
	for k := range s.ByKind {
		sum.add(s.ByKind[k])
	}
	return sum
}

// Conserved reports whether the per-kind buckets sum to the aggregate
// totals on every field.
func (s Stats) Conserved() bool {
	sum := s.KindSums()
	return sum == KindStats{
		BytesSent:       s.BytesSent,
		BytesRecv:       s.BytesRecv,
		MsgsSent:        s.MsgsSent,
		MsgsRecv:        s.MsgsRecv,
		Collectives:     s.Collectives,
		CollectiveBytes: s.CollectiveBytes,
		CollectiveMsgs:  s.CollectiveMsgs,
		RecvBlockedNs:   s.RecvBlockedNs,
		RecvQueueNs:     s.RecvQueueNs,
		RecvsBlocked:    s.RecvsBlocked,
		BarrierWaitNs:   s.BarrierWaitNs,
		BarrierSyncs:    s.BarrierSyncs,
	}
}
