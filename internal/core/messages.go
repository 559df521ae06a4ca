// Package core implements the paper's contribution: the distributed
// Infomap algorithm (Algorithms 2 and 3), built on delegate partitioning
// (package partition) and the message-passing runtime (package mpi).
//
// # Protocol overview
//
// The algorithm is bulk-synchronous. Each clustering iteration (round)
// on each rank runs the paper's Figure 8 phases, with the Module_Info
// refresh that the figure counts as Other split into its two rounds:
//
//	FindBestModule      sweep local vertices, evaluate delta-L against the
//	                    locally known module table, apply low-degree moves
//	                    (minimum-label rule for boundary targets), record
//	                    the best local candidate move of each delegate
//	SwapBoundaryInfo    one alltoallv carries the updated community ids of
//	                    owned boundary vertices to the ranks that ghost
//	                    them and, at levels with delegates, every rank's
//	                    delegate candidates to every rank (round A)
//	BroadcastDelegates  every rank picks, per hub, the candidate with the
//	                    minimum local delta-L; round B (an allgather, made
//	                    only when some hub has a candidate) sums the exact
//	                    global delta-L; then the held ghost updates apply
//	refresh round 1     alltoallv module partials to their home ranks
//	refresh round 2     alltoallv authoritative Module_Info records (List
//	                    1) back to subscribers; every payload opens with
//	                    the sender's MDL partial sums and its move vote,
//	                    so round 2 is also the MDL reduction and the
//	                    convergence vote
//
// A round thus enters three synchronizing calls, four when round B
// runs: the boundary exchange and the paper's two Module_Info rounds
// (Algorithm 3), the second of which also does the MDL reduction.
// Merged levels have no delegates and always enter three.
//
// # Preprocessing
//
// No rank holds the whole graph. A rank starts from its rows, the
// adjacency of the vertices it owns (id mod p): it cuts them from an
// in-memory graph (Run, RunRank) or reads them rank-locally from an
// edge-list file, parsing only its 1/p of the bytes and routing each
// arc to its owner (RunFile, RunRankFile; see ingestFile). Collectives
// over per-vertex sums then give every rank the global quantities, and
// the per-rank steps of partition.Delegate give it its arcs of the
// delegate layout (see preprocess). Levels share one rankMem per rank,
// so merged levels reuse the id-space arrays instead of allocating
// them anew.
//
// Module statistics are made exact at every iteration boundary: each
// rank computes partial (sumPr, exitPr, members) for the modules its
// arcs and owned vertices touch, sends the partials to the module's home
// rank (module id mod p), and receives back the authoritative totals for
// every module it asked about. The isSent flag of List 1 suppresses
// resending stats that have not changed since the last send to that
// subscriber (ablation NoDedup disables this and additionally sends one
// record per boundary vertex instead of per unique module, reproducing
// the duplicated-module-information problem of the paper's Figure 3).
package core

import "dinfomap/internal/mpi"

// ModuleInfo is the wire form of the paper's List 1 message interface.
type ModuleInfo struct {
	ModID      int     // module ID
	SumPr      float64 // sum of visit probabilities of the module
	ExitPr     float64 // exit probability of the module
	NumMembers int     // vertex count in the module
	IsSent     bool    // stats already delivered to this receiver earlier
}

// Wire format: a leading isSent flag byte, then the module id, then —
// only when isSent is false — the full statistics. The short form is
// what makes the isSent deduplication save bytes: 9 bytes instead of 33.
const (
	moduleInfoWireSize      = 1 + 8 + 8 + 8 + 8
	moduleInfoShortWireSize = 1 + 8
)

func (m ModuleInfo) encode(e *mpi.Encoder) {
	e.PutBool(false)
	e.PutInt(m.ModID)
	e.PutF64(m.SumPr)
	e.PutF64(m.ExitPr)
	e.PutInt(m.NumMembers)
}

// encodeShort writes only the id and the isSent marker, telling the
// receiver its existing copy of the module statistics is still current.
func (m ModuleInfo) encodeShort(e *mpi.Encoder) {
	e.PutBool(true)
	e.PutInt(m.ModID)
}

func decodeModuleInfoMaybeShort(d *mpi.Decoder) ModuleInfo {
	if d.Bool() {
		return ModuleInfo{ModID: d.Int(), IsSent: true}
	}
	return ModuleInfo{
		ModID:      d.Int(),
		SumPr:      d.F64(),
		ExitPr:     d.F64(),
		NumMembers: d.Int(),
	}
}

// hubCandidate is one rank's best local move for one delegate: the
// payload of the BroadcastDelegates phase.
type hubCandidate struct {
	Hub    int
	Target int     // proposed destination module
	DeltaL float64 // local delta-L of the proposal (negative = improves)
}

// hubCandidateBytes is the wire size of one hubCandidate.
const hubCandidateBytes = 3 * 8

func (h hubCandidate) encode(e *mpi.Encoder) {
	e.PutInt(h.Hub)
	e.PutInt(h.Target)
	e.PutF64(h.DeltaL)
}

func decodeHubCandidate(d *mpi.Decoder) hubCandidate {
	return hubCandidate{Hub: d.Int(), Target: d.Int(), DeltaL: d.F64()}
}

// ghostUpdate carries the new community of one boundary vertex.
type ghostUpdate struct {
	Vertex int
	Comm   int
}

// ghostUpdateBytes is the wire size of one ghostUpdate.
const ghostUpdateBytes = 2 * 8

func (g ghostUpdate) encode(e *mpi.Encoder) {
	e.PutInt(g.Vertex)
	e.PutInt(g.Comm)
}

func decodeGhostUpdate(d *mpi.Decoder) ghostUpdate {
	return ghostUpdate{Vertex: d.Int(), Comm: d.Int()}
}

// modulePartial is one rank's contribution to a module's statistics,
// sent to the module's home rank. A partial with all-zero stats acts as
// a pure subscription request.
type modulePartial struct {
	ModID   int
	SumPr   float64
	ExitPr  float64
	Members int
}

// modulePartialBytes is the wire size of one modulePartial.
const modulePartialBytes = 4 * 8

func (m modulePartial) encode(e *mpi.Encoder) {
	e.PutInt(m.ModID)
	e.PutF64(m.SumPr)
	e.PutF64(m.ExitPr)
	e.PutInt(m.Members)
}

func decodeModulePartial(d *mpi.Decoder) modulePartial {
	return modulePartial{ModID: d.Int(), SumPr: d.F64(), ExitPr: d.F64(), Members: d.Int()}
}
