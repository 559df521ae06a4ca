package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"dinfomap/internal/mpi"
)

// chromeEvent is one record of the Chrome trace-event format
// (the "JSON Object Format" consumed by Perfetto and chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	ID   string         `json:"id,omitempty"`  // flow-event binding id
	BP   string         `json:"bp,omitempty"`  // flow binding point ("e": enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace exports the journal as Chrome trace-event JSON: one
// timeline row (thread) per rank, one complete-event span per journal
// event, with the per-iteration counters attached as span args. Open the
// output in https://ui.perfetto.dev or chrome://tracing.
//
// The wait-state events of the journal's recorder are drawn on top:
//
//   - one flow arrow per matched p2p pair, from the send stamp on the
//     sender's row to the receive completion on the receiver's row
//     (Perfetto draws these as arrows between the enclosing slices);
//   - a "blocked ranks" counter track: how many ranks sit between
//     barrier arrival and release, so synchronization stalls are
//     visible at a glance.
//
// A recorder that holds no events adds nothing.
func WriteChromeTrace(w io.Writer, j *Journal) error {
	if j == nil {
		return fmt.Errorf("obs: nil journal")
	}
	evs := make([]chromeEvent, 0, j.NumEvents()+2*j.NumRanks()+1)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "dinfomap"},
	})
	for r := 0; r < j.NumRanks(); r++ {
		evs = append(evs,
			chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: r,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
			},
			chromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: r,
				Args: map[string]any{"sort_index": r},
			},
		)
	}
	for r := 0; r < j.NumRanks(); r++ {
		for _, ev := range j.Rank(r).Events() {
			evs = append(evs, chromeEvent{
				Name: ev.Phase.Name(),
				Cat:  fmt.Sprintf("stage%d", ev.Stage),
				Ph:   "X",
				Pid:  0,
				Tid:  r,
				Ts:   usec(ev.Start),
				Dur:  usec(ev.Dur()),
				Args: map[string]any{
					"stage":    ev.Stage,
					"outer":    ev.Outer,
					"iter":     ev.Iter,
					"moves":    ev.Moves,
					"deferred": ev.Deferred,
					"ops":      ev.Ops,
					"msgs":     ev.Msgs,
					"bytes":    ev.Bytes,
					"wait_ns":  ev.WaitNs,
				},
			})
		}
	}
	evs = append(evs, flowEvents(j.rec)...)
	evs = append(evs, blockedCounterEvents(j.rec)...)
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// flowEvents renders every recorded p2p match as a flow start on the
// sender's row and a flow finish on the receiver's row. The binding
// point "e" attaches each end to the slice enclosing its timestamp.
func flowEvents(rec *mpi.Recorder) []chromeEvent {
	var out []chromeEvent
	id := 0
	for r := 0; r < rec.NumRanks(); r++ {
		for _, e := range rec.P2P(r) {
			id++
			name := e.Kind.String()
			args := map[string]any{"bytes": e.Bytes, "tag": e.Tag, "blocked": e.Blocked()}
			out = append(out,
				chromeEvent{
					Name: name, Cat: "p2p", Ph: "s", Pid: 0, Tid: e.Src,
					Ts: usec(e.SentAt), ID: fmt.Sprintf("p2p%d", id), Args: args,
				},
				chromeEvent{
					Name: name, Cat: "p2p", Ph: "f", BP: "e", Pid: 0, Tid: r,
					Ts: usec(e.RecvEnd), ID: fmt.Sprintf("p2p%d", id), Args: args,
				},
			)
		}
	}
	return out
}

// blockedCounterEvents builds the "blocked ranks" counter track: +1
// while a rank waits between barrier arrival and release, emitted as
// one counter sample per change point. Only barrier windows count: a
// collective's frame waits lie inside the same rank's barrier window,
// so counting them too would count one blocked rank twice.
func blockedCounterEvents(rec *mpi.Recorder) []chromeEvent {
	type delta struct {
		at time.Duration
		d  int
	}
	var ds []delta
	for r := 0; r < rec.NumRanks(); r++ {
		for _, b := range rec.Barriers(r) {
			ds = append(ds, delta{b.Arrive, +1}, delta{b.Release, -1})
		}
	}
	if len(ds) == 0 {
		return nil
	}
	// Deterministic order: by time, decrements before increments on ties
	// so the running count never over-counts an instantaneous handoff.
	sort.Slice(ds, func(i, k int) bool {
		if ds[i].at != ds[k].at {
			return ds[i].at < ds[k].at
		}
		return ds[i].d < ds[k].d
	})
	out := make([]chromeEvent, 0, len(ds))
	blocked := 0
	for _, d := range ds {
		blocked += d.d
		out = append(out, chromeEvent{
			Name: "blocked ranks", Ph: "C", Pid: 0, Ts: usec(d.at),
			Args: map[string]any{"blocked": blocked},
		})
	}
	return out
}
