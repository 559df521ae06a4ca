// Remote telemetry: how a multi-process run's observability crosses
// process boundaries.
//
// Child side: a Relay subscribes a tap on the rank-scoped journal and
// forwards every event over the rank's mpi.Uplink (binary-encoded,
// non-blocking — drops are counted, never stalls), plus periodic JSON
// comm-stats/transport snapshots so the parent's Prometheus surface is
// live mid-run. After the run the child captures a lossless
// RankTelemetry section (all events, the wait recorder's raw p2p and
// barrier records, final transport counters) and sends it blocking —
// the live stream is best-effort, the section is the ground truth.
//
// Parent side: a Collector implements mpi.UplinkHandler. Live events
// feed a parent journal (which the SSE/status/metrics endpoints serve
// mesh-wide) with timestamps aligned by the current clock estimate;
// final sections accumulate until Merge rebuilds a complete journal +
// recorder on the parent timeline — the inputs the merged Chrome trace
// and the report's waitstates/critical-path sections need.
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dinfomap/internal/mpi"
)

// streamEventWire is the fixed binary size of one encoded StreamEvent:
// 14 little-endian 64-bit fields (rank, seq, and the 12 Event fields).
const streamEventWire = 14 * 8

// EncodeStreamEvent serializes ev in the codec's fixed-width
// little-endian format (the uplink's UplinkTagEvent payload).
func EncodeStreamEvent(ev StreamEvent) []byte {
	e := mpi.NewEncoder(streamEventWire)
	e.PutInt(ev.Rank)
	e.PutI64(ev.Seq)
	e.PutInt(int(ev.Stage))
	e.PutInt(int(ev.Outer))
	e.PutInt(int(ev.Iter))
	e.PutInt(int(ev.Phase))
	e.PutI64(int64(ev.Start))
	e.PutI64(int64(ev.End))
	e.PutInt(int(ev.Moves))
	e.PutInt(int(ev.Deferred))
	e.PutI64(ev.Ops)
	e.PutI64(ev.Msgs)
	e.PutI64(ev.WaitNs)
	e.PutI64(ev.Bytes)
	return e.Bytes()
}

// DecodeStreamEvent parses an EncodeStreamEvent payload.
func DecodeStreamEvent(b []byte) (StreamEvent, error) {
	if len(b) != streamEventWire {
		return StreamEvent{}, fmt.Errorf("obs: stream event payload is %d bytes, want %d", len(b), streamEventWire)
	}
	d := mpi.NewDecoder(b)
	var ev StreamEvent
	ev.Rank = d.Int()
	ev.Seq = d.I64()
	ev.Stage = uint8(d.Int())
	ev.Outer = uint16(d.Int())
	ev.Iter = int32(d.Int())
	ev.Phase = PhaseID(d.Int())
	ev.Start = time.Duration(d.I64())
	ev.End = time.Duration(d.I64())
	ev.Moves = int32(d.Int())
	ev.Deferred = int32(d.Int())
	ev.Ops = d.I64()
	ev.Msgs = d.I64()
	ev.WaitNs = d.I64()
	ev.Bytes = d.I64()
	return ev, nil
}

// StatsUpdate is the periodic live snapshot a child sends under
// UplinkTagStats: the rank's cumulative comm stats plus its transport
// counters. JSON — it is low-rate (a few per second) and schema
// flexibility beats the few bytes binary would save.
type StatsUpdate struct {
	Stats     mpi.Stats           `json:"stats"`
	Transport *mpi.TransportStats `json:"transport,omitempty"`
}

// RankTelemetry is one rank's complete, lossless telemetry section,
// sent under UplinkTagSection after the rank's run (success or
// failure). Everything the parent needs to rebuild this rank's slice of
// the run: all journal events, final comm stats, the wait recorder's
// raw records, transport counters, and how lossy the live stream was.
type RankTelemetry struct {
	Rank      int                 `json:"rank"`
	Events    []Event             `json:"events"`
	Stats     mpi.Stats           `json:"stats"`
	P2P       []mpi.P2PEvent      `json:"p2p,omitempty"`
	Barriers  []mpi.BarrierEvent  `json:"barriers,omitempty"`
	Transport *mpi.TransportStats `json:"transport,omitempty"`
	// LiveDrops is how many live frames the uplink ring discarded; the
	// section itself is complete regardless.
	LiveDrops int64 `json:"live_drops"`
}

// CaptureTelemetry packages rank's section from its journal, recorder,
// and transport counters. Call only after the rank's run has returned
// (the journal buffers are single-writer until then). Nil journal,
// recorder, and transport are all fine — the section carries what
// exists.
func CaptureTelemetry(j *Journal, rank int, rec *mpi.Recorder, ts *mpi.TransportStats, liveDrops int64) *RankTelemetry {
	rt := &RankTelemetry{Rank: rank, Transport: ts, LiveDrops: liveDrops}
	rt.Events = j.Rank(rank).Events()
	if s, ok := j.Rank(rank).CommSnapshot(); ok {
		rt.Stats = s
	}
	if rec != nil && rank < rec.NumRanks() {
		rt.P2P = rec.P2P(rank)
		rt.Barriers = rec.Barriers(rank)
	}
	return rt
}

// SendTelemetry ships the final section over the uplink, blocking
// (Flush first so it orders after all live frames).
func SendTelemetry(up *mpi.Uplink, rt *RankTelemetry) error {
	data, err := json.Marshal(rt)
	if err != nil {
		return fmt.Errorf("obs: encoding rank %d telemetry: %w", rt.Rank, err)
	}
	up.Flush()
	return up.Send(mpi.UplinkTagSection, data)
}

// defaultStatsEvery is the Relay's periodic-snapshot cadence.
const defaultStatsEvery = 250 * time.Millisecond

// Relay forwards a child's live journal flow onto its uplink.
type Relay struct{ done chan struct{} }

// StartRelay subscribes a tap on j and forwards every event over up
// (binary, non-blocking), plus a comm-stats/transport snapshot every
// statsEvery (<= 0 means the default). transport may be nil; when set
// it is called per snapshot for current counters. The relay ends when
// the journal finishes (its tap closes), after a final snapshot; Wait
// blocks for that.
func StartRelay(j *Journal, rank int, up *mpi.Uplink, transport func() *mpi.TransportStats, statsEvery time.Duration) *Relay {
	if statsEvery <= 0 {
		statsEvery = defaultStatsEvery
	}
	rel := &Relay{done: make(chan struct{})}
	tap := j.Subscribe(DefaultTapBuffer)
	snapshot := func() {
		upd := StatsUpdate{}
		if s, ok := j.Rank(rank).CommSnapshot(); ok {
			upd.Stats = s
		}
		if transport != nil {
			upd.Transport = transport()
		}
		if data, err := json.Marshal(upd); err == nil {
			up.Offer(mpi.UplinkTagStats, data)
		}
	}
	go func() {
		defer close(rel.done)
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case ev, open := <-tap.Events():
				if !open {
					snapshot()
					return
				}
				up.Offer(mpi.UplinkTagEvent, EncodeStreamEvent(ev))
			case <-tick.C:
				snapshot()
			}
		}
	}()
	return rel
}

// Wait blocks until the relay has drained (journal finished).
func (r *Relay) Wait() { <-r.done }

// Collector is the parent-side sink for every rank's uplink: it feeds
// live events into a parent journal (aligned with the current clock
// estimate), mirrors snapshots into the live metrics, accumulates final
// sections, and owns the per-rank clock estimation.
//
// Concurrency: each rank's frames arrive from that rank's single
// UplinkPeer.Serve goroutine, and rank r's Serve goroutine is the only
// writer of journal rank-row r — the journal's single-writer-per-rank
// discipline holds. The estimate/section state is mutex-guarded.
type Collector struct {
	p int
	j *Journal // live parent journal (SSE/status/metrics); may be nil
	m *Metrics // live metrics; may be nil

	mu       sync.Mutex
	samples  [][]mpi.ClockSample
	clocks   []ClockEstimate
	sections []*RankTelemetry
}

// NewCollector returns a collector for a p-rank world. j (the parent's
// live journal) and m (its live metrics) may each be nil.
func NewCollector(p int, j *Journal, m *Metrics) *Collector {
	c := &Collector{
		p:        p,
		j:        j,
		m:        m,
		samples:  make([][]mpi.ClockSample, p),
		clocks:   make([]ClockEstimate, p),
		sections: make([]*RankTelemetry, p),
	}
	for r := range c.clocks {
		c.clocks[r] = ClockEstimate{Rank: r}
	}
	return c
}

// HandleSample records one ping/pong clock measurement and refreshes
// the rank's estimate.
func (c *Collector) HandleSample(rank int, s mpi.ClockSample) {
	if rank < 0 || rank >= c.p {
		return
	}
	c.mu.Lock()
	c.samples[rank] = append(c.samples[rank], s)
	c.clocks[rank] = EstimateClock(rank, c.samples[rank])
	c.mu.Unlock()
}

// offset returns rank's current estimated offset (child − parent).
func (c *Collector) offset(rank int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clocks[rank].Offset()
}

// HandleFrame ingests one data frame from rank's uplink.
func (c *Collector) HandleFrame(rank, tag int, _ time.Duration, payload []byte) {
	if rank < 0 || rank >= c.p {
		return
	}
	switch tag {
	case mpi.UplinkTagEvent:
		ev, err := DecodeStreamEvent(payload)
		if err != nil {
			return
		}
		// Align onto the parent timeline with the estimate as of now;
		// the final Merge realigns everything with the settled one.
		off := c.offset(rank)
		ev.Event.Start -= off
		ev.Event.End -= off
		c.j.Rank(rank).Emit(ev.Event)
	case mpi.UplinkTagStats:
		var upd StatsUpdate
		if err := json.Unmarshal(payload, &upd); err != nil {
			return
		}
		c.j.Rank(rank).PublishComm(upd.Stats)
		c.m.ObserveTransport(rank, upd.Transport)
	case mpi.UplinkTagSection:
		rt := &RankTelemetry{}
		if err := json.Unmarshal(payload, rt); err != nil {
			return
		}
		rt.Rank = rank // trust the handshake, not the payload
		c.mu.Lock()
		c.sections[rank] = rt
		c.mu.Unlock()
		c.j.Rank(rank).PublishComm(rt.Stats)
		c.m.ObserveTransport(rank, rt.Transport)
	}
}

// Clocks returns a copy of the current per-rank clock estimates.
func (c *Collector) Clocks() []ClockEstimate {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ClockEstimate, len(c.clocks))
	copy(out, c.clocks)
	return out
}

// Sections returns the final sections received so far, indexed by rank
// (nil where a rank's section never arrived).
func (c *Collector) Sections() []*RankTelemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*RankTelemetry, len(c.sections))
	copy(out, c.sections)
	return out
}

// Merge rebuilds the complete aligned journal and recorder from the
// final sections (see MergeTelemetry). epoch anchors the merged
// timeline — pass the launcher's run epoch.
func (c *Collector) Merge(epoch time.Time) (*Journal, *mpi.Recorder) {
	return MergeTelemetry(c.p, epoch, c.Sections(), c.Clocks())
}

// MergeTelemetry assembles per-rank telemetry sections into one
// journal + wait recorder on the parent timeline: every timestamp of
// rank r is shifted by −clocks[r].Offset(). Durations are preserved
// exactly (both endpoints shift together); cross-rank relations (flow
// arrows, wait matching, barrier skew) become meaningful to within the
// estimates' residuals. A p2p event's SentAt is corrected by the
// *sender's* offset — the stamp was taken on the sender's clock.
// Missing sections (nil entries — a rank that died before flushing)
// leave empty rows. The merged journal is finished: it is a post-hoc
// record, not a live stream.
func MergeTelemetry(p int, epoch time.Time, sections []*RankTelemetry, clocks []ClockEstimate) (*Journal, *mpi.Recorder) {
	off := make([]time.Duration, p)
	for _, c := range clocks {
		if c.Rank >= 0 && c.Rank < p {
			off[c.Rank] = c.Offset()
		}
	}
	j := NewJournalAt(p, epoch)
	rec := mpi.NewRecorder(p, epoch)
	for r := 0; r < p; r++ {
		var sec *RankTelemetry
		if r < len(sections) {
			sec = sections[r]
		}
		if sec == nil {
			continue
		}
		rl := j.Rank(r)
		for _, ev := range sec.Events {
			ev.Start -= off[r]
			ev.End -= off[r]
			rl.Emit(ev)
		}
		rl.PublishComm(sec.Stats)
		for _, pe := range sec.P2P {
			if pe.Src >= 0 && pe.Src < p {
				pe.SentAt -= off[pe.Src]
			}
			pe.RecvStart -= off[r]
			pe.RecvEnd -= off[r]
			rec.AddP2P(r, pe)
		}
		for _, be := range sec.Barriers {
			be.Arrive -= off[r]
			be.Release -= off[r]
			rec.AddBarrier(r, be)
		}
	}
	j.Finish()
	return j, rec
}
