// Live Prometheus metrics for a running (or finished) distributed run.
//
// Two feeds, one registry:
//
//   - span counters stream in through the same non-blocking tap
//     machinery as the SSE endpoint — a background collector goroutine
//     consumes a Tap, so ranks never block on the metrics observer and
//     a stalled scraper can at worst lose tap events (counted);
//   - comm counters are mirrored at scrape time from each rank's
//     atomically-published cumulative mpi.Stats snapshot (PublishComm),
//     giving exact per-kind byte/message counters without the tap's
//     lossy ring in the path.
package obs

import (
	"net/http"
	"strconv"

	"dinfomap/internal/mpi"
)

// MetricsPath is the Prometheus text exposition endpoint registered by
// RegisterDebugHandlers.
const MetricsPath = "/debug/dinfomap/metrics"

// spanDurationBuckets covers sub-microsecond journal spans up to
// multi-second stalls (seconds, exponential).
var spanDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Metrics aggregates a journal's live event flow into a Registry and
// serves it in Prometheus text format.
type Metrics struct {
	j   *Journal
	reg *Registry

	spanEvents *Vec // {rank, phase}
	spanMoves  *Vec
	spanOps    *Vec
	spanMsgs   *Vec
	spanBytes  *Vec
	spanDur    *Vec // {phase} histogram, seconds
	outerIters *Vec // {rank}

	commKindBytes *Vec // {rank, kind, direction}
	commKindMsgs  *Vec // {rank, kind, direction}
	commKindColls *Vec // {rank, kind}
	commRankBytes *Vec // {rank, direction}
	commRankMsgs  *Vec // {rank, direction}
	commRankColls *Vec // {rank}
	commKindWait  *Vec // {rank, kind, state} seconds
	commRankWait  *Vec // {rank, state} seconds
	recvsBlocked  *Vec // {rank}
	barrierSyncs  *Vec // {rank}

	transportFrames    *Vec // {rank, peer, direction}
	transportBytes     *Vec // {rank, peer, direction}
	transportRetries   *Vec // {rank}
	transportHandshake *Vec // {rank} gauge, seconds
	transportPoisons   *Vec // {rank, direction}

	journalEvents      *Vec
	journalDropped     *Vec
	journalSubscribers *Vec
	runFinished        *Vec
	buildInfo          *Vec
	done               chan struct{}
}

// RunMetrics subscribes a tap on j, starts the collector goroutine, and
// returns the Metrics. The collector exits when the run finishes
// (Journal.Finish closes the tap); Done reports that. A nil journal
// yields a Metrics whose collector exits immediately and whose scrape
// output is empty.
func RunMetrics(j *Journal) *Metrics {
	reg := NewRegistry()
	m := &Metrics{
		j:   j,
		reg: reg,

		spanEvents: reg.Counter("dinfomap_span_events_total",
			"Journal span events recorded, by rank and phase.", "rank", "phase"),
		spanMoves: reg.Counter("dinfomap_span_moves_total",
			"Vertex moves applied, by rank and phase.", "rank", "phase"),
		spanOps: reg.Counter("dinfomap_span_ops_total",
			"Counted work (delta-L evals, candidates, ghosts, modules), by rank and phase.", "rank", "phase"),
		spanMsgs: reg.Counter("dinfomap_span_msgs_total",
			"Messages sent within spans (p2p + modeled collective steps), by rank and phase.", "rank", "phase"),
		spanBytes: reg.Counter("dinfomap_span_bytes_total",
			"Bytes sent within spans, by rank and phase.", "rank", "phase"),
		spanDur: reg.Histogram("dinfomap_span_duration_seconds",
			"Host wall-clock span durations by phase.", spanDurationBuckets, "phase"),
		outerIters: reg.Counter("dinfomap_outer_iterations_total",
			"Outer iterations completed, by rank.", "rank"),

		commKindBytes: reg.Counter("dinfomap_comm_kind_bytes_total",
			"Cumulative rank traffic bytes by message kind and direction (sent, recv, collective).", "rank", "kind", "direction"),
		commKindMsgs: reg.Counter("dinfomap_comm_kind_msgs_total",
			"Cumulative rank message counts by kind and direction (sent, recv, collective).", "rank", "kind", "direction"),
		commKindColls: reg.Counter("dinfomap_comm_kind_collectives_total",
			"Cumulative collective operations by rank and ambient kind.", "rank", "kind"),
		commRankBytes: reg.Counter("dinfomap_comm_rank_bytes_total",
			"Cumulative rank traffic bytes by direction; equals the per-kind sums.", "rank", "direction"),
		commRankMsgs: reg.Counter("dinfomap_comm_rank_msgs_total",
			"Cumulative rank message counts by direction; equals the per-kind sums.", "rank", "direction"),
		commRankColls: reg.Counter("dinfomap_comm_rank_collectives_total",
			"Cumulative collective operations by rank.", "rank"),
		commKindWait: reg.Counter("dinfomap_comm_wait_seconds_total",
			"Cumulative communication wait by rank, kind, and wait state (blocked: late sender; queued: inbox residency / late receiver; barrier: arrival-to-release skew).", "rank", "kind", "state"),
		commRankWait: reg.Counter("dinfomap_comm_rank_wait_seconds_total",
			"Cumulative communication wait by rank and wait state; equals the per-kind sums.", "rank", "state"),
		recvsBlocked: reg.Counter("dinfomap_comm_recvs_blocked_total",
			"Receives that blocked on a late sender, by rank.", "rank"),
		barrierSyncs: reg.Counter("dinfomap_comm_barrier_syncs_total",
			"Synchronization points entered (barriers and collective-internal syncs), by rank.", "rank"),

		transportFrames: reg.Counter("dinfomap_transport_frames_total",
			"Multi-process transport frames on the wire, by rank, peer rank, and direction (sent, recv).", "rank", "peer", "direction"),
		transportBytes: reg.Counter("dinfomap_transport_bytes_total",
			"Multi-process transport bytes on the wire (frame headers included), by rank, peer rank, and direction.", "rank", "peer", "direction"),
		transportRetries: reg.Counter("dinfomap_transport_connect_retries_total",
			"Mesh-establishment dial attempts beyond the first, by rank.", "rank"),
		transportHandshake: reg.Gauge("dinfomap_transport_handshake_seconds",
			"Full mesh-establishment time (all peers dialed/accepted and verified), by rank.", "rank"),
		transportPoisons: reg.Counter("dinfomap_transport_poison_events_total",
			"Poison frames observed on the mesh, by rank and direction (sent, recv).", "rank", "direction"),

		journalEvents: reg.Gauge("dinfomap_journal_events",
			"Total journal events emitted across ranks."),
		journalDropped: reg.Gauge("dinfomap_journal_dropped_events",
			"Events lost to slow live subscribers (tap ring overflow), journal lifetime."),
		journalSubscribers: reg.Gauge("dinfomap_journal_subscribers",
			"Live event-stream subscribers (taps) currently attached."),
		runFinished: reg.Gauge("dinfomap_run_finished",
			"1 once the run has completed, else 0."),
		buildInfo: reg.Gauge("dinfomap_build_info",
			"Build provenance; value is always 1, the labels carry module version and VCS revision.", "version", "revision", "modified"),
		done: make(chan struct{}),
	}
	b := ReadBuild()
	m.buildInfo.With(b.Version, b.Revision, strconv.FormatBool(b.Modified)).Set(1)
	tap := j.Subscribe(DefaultTapBuffer)
	go func() {
		defer close(m.done)
		for ev := range tap.Events() {
			m.observe(ev)
		}
	}()
	return m
}

// Done is closed when the collector goroutine has drained its tap
// (after Journal.Finish).
func (m *Metrics) Done() <-chan struct{} { return m.done }

// Registry exposes the underlying registry (tests, custom exposition).
func (m *Metrics) Registry() *Registry { return m.reg }

// observe folds one streamed journal event into the span counters.
// Outer-iteration boundary markers count as iterations, not spans:
// their Msgs/Bytes carry the iteration's cumulative traffic delta,
// which the phase spans already accounted for.
func (m *Metrics) observe(ev StreamEvent) {
	rank := strconv.Itoa(ev.Rank)
	if ev.Phase == PhaseOuterIter {
		m.outerIters.With(rank).Add(1)
		return
	}
	phase := ev.Phase.Name()
	m.spanEvents.With(rank, phase).Add(1)
	m.spanMoves.With(rank, phase).Add(float64(ev.Moves))
	m.spanOps.With(rank, phase).Add(float64(ev.Ops))
	m.spanMsgs.With(rank, phase).Add(float64(ev.Msgs))
	m.spanBytes.With(rank, phase).Add(float64(ev.Bytes))
	m.spanDur.With(phase).Observe(ev.Dur().Seconds())
}

// ObserveTransport mirrors one rank's cumulative transport-counter
// snapshot into the registry (Set semantics, like scrape: the source is
// itself a monotone counter set). Nil-safe on both receivers; safe from
// any goroutine — the launcher's uplink collector calls it once per
// periodic child snapshot.
func (m *Metrics) ObserveTransport(rank int, ts *mpi.TransportStats) {
	if m == nil || ts == nil {
		return
	}
	r := strconv.Itoa(rank)
	for p, pt := range ts.Peers {
		if pt == (mpi.PeerTraffic{}) {
			continue // self slot, or a peer never talked to
		}
		peer := strconv.Itoa(p)
		m.transportFrames.With(r, peer, "sent").Set(float64(pt.FramesSent))
		m.transportFrames.With(r, peer, "recv").Set(float64(pt.FramesRecv))
		m.transportBytes.With(r, peer, "sent").Set(float64(pt.BytesSent))
		m.transportBytes.With(r, peer, "recv").Set(float64(pt.BytesRecv))
	}
	m.transportRetries.With(r).Set(float64(ts.ConnectRetries))
	m.transportHandshake.With(r).Set(float64(ts.HandshakeWallNs) / 1e9)
	m.transportPoisons.With(r, "sent").Set(float64(ts.PoisonsSent))
	m.transportPoisons.With(r, "recv").Set(float64(ts.PoisonsRecv))
}

// scrape mirrors the scrape-time values into the registry: each rank's
// latest published cumulative comm snapshot (exact, per kind) and the
// journal's live status gauges. Counter families are Set, not Added —
// the sources are themselves cumulative monotone counters.
func (m *Metrics) scrape() {
	if m.j == nil {
		return
	}
	for r := 0; r < m.j.NumRanks(); r++ {
		s, ok := m.j.Rank(r).CommSnapshot()
		if !ok {
			continue
		}
		rank := strconv.Itoa(r)
		for k := 0; k < mpi.NumKinds; k++ {
			ks := s.ByKind[k]
			kind := mpi.Kind(k).String()
			m.commKindBytes.With(rank, kind, "sent").Set(float64(ks.BytesSent))
			m.commKindBytes.With(rank, kind, "recv").Set(float64(ks.BytesRecv))
			m.commKindBytes.With(rank, kind, "collective").Set(float64(ks.CollectiveBytes))
			m.commKindMsgs.With(rank, kind, "sent").Set(float64(ks.MsgsSent))
			m.commKindMsgs.With(rank, kind, "recv").Set(float64(ks.MsgsRecv))
			m.commKindMsgs.With(rank, kind, "collective").Set(float64(ks.CollectiveMsgs))
			m.commKindColls.With(rank, kind).Set(float64(ks.Collectives))
			m.commKindWait.With(rank, kind, "blocked").Set(float64(ks.RecvBlockedNs) / 1e9)
			m.commKindWait.With(rank, kind, "queued").Set(float64(ks.RecvQueueNs) / 1e9)
			m.commKindWait.With(rank, kind, "barrier").Set(float64(ks.BarrierWaitNs) / 1e9)
		}
		m.commRankBytes.With(rank, "sent").Set(float64(s.BytesSent))
		m.commRankBytes.With(rank, "recv").Set(float64(s.BytesRecv))
		m.commRankBytes.With(rank, "collective").Set(float64(s.CollectiveBytes))
		m.commRankMsgs.With(rank, "sent").Set(float64(s.MsgsSent))
		m.commRankMsgs.With(rank, "recv").Set(float64(s.MsgsRecv))
		m.commRankMsgs.With(rank, "collective").Set(float64(s.CollectiveMsgs))
		m.commRankColls.With(rank).Set(float64(s.Collectives))
		m.commRankWait.With(rank, "blocked").Set(float64(s.RecvBlockedNs) / 1e9)
		m.commRankWait.With(rank, "queued").Set(float64(s.RecvQueueNs) / 1e9)
		m.commRankWait.With(rank, "barrier").Set(float64(s.BarrierWaitNs) / 1e9)
		m.recvsBlocked.With(rank).Set(float64(s.RecvsBlocked))
		m.barrierSyncs.With(rank).Set(float64(s.BarrierSyncs))
	}
	st := m.j.Status()
	m.journalEvents.With().Set(float64(st.Events))
	m.journalDropped.With().Set(float64(st.DroppedEvents))
	m.journalSubscribers.With().Set(float64(st.Subscribers))
	if st.Finished {
		m.runFinished.With().Set(1)
	} else {
		m.runFinished.With().Set(0)
	}
}

// ServeHTTP serves the registry in Prometheus text exposition format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	m.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.reg.WriteText(w)
}
