package obs

import "dinfomap/internal/mpi"

// ScrubVolatile zeroes every nondeterministic field of a run report —
// measured host times, journal-only analysis sections, build
// provenance, transport wire counters, process memory — so two
// scrubbed reports of the same graph, config, and seed are
// byte-comparable regardless of transport or host. This is the single
// definition of "deterministic field" that dinfomap-diff -parity and
// the cross-transport parity tests share.
//
// Transport counters are dropped wholesale rather than selectively:
// frame counts are deterministic per transport but differ between
// transports (the goroutine backend has no frames at all), and parity
// compares across transports.
func ScrubVolatile(rep *Report) {
	rep.Timing.Stage1WallNs = 0
	rep.Timing.Stage2WallNs = 0
	rep.Timing.PhaseWallNs = nil
	rep.Timing.RunWallNs = 0
	rep.CriticalPath = nil
	rep.LostTime = nil
	rep.Build = nil
	if rep.Comms != nil {
		scrubWait(&rep.Comms.Totals)
		scrubWaitMap(rep.Comms.ByKind)
	}
	for i := range rep.Ranks {
		r := &rep.Ranks[i]
		r.Wall1Ns = 0
		r.Wall2Ns = 0
		r.PhaseWallNs = nil
		r.Transport = nil
		r.PeakRSSBytes = 0
		r.LiveBytes = [3]int64{}
		if r.Ingest != nil {
			in := *r.Ingest
			in.WallNs = 0
			r.Ingest = &in
		}
		scrubWait(&r.Comm)
		scrubWaitMap(r.CommByKind)
		for k := range r.Iterations {
			r.Iterations[k].WallNs = 0
			scrubWait(&r.Iterations[k].Comm)
			scrubWaitMap(r.Iterations[k].CommByKind)
		}
	}
}

// scrubWait zeroes the wall-clock wait measurement of one comm
// record. The traffic counters and BarrierSyncs stay: they are
// deterministic and the parity check's point.
func scrubWait(c *mpi.KindStats) {
	c.BarrierWaitNs = 0
}

func scrubWaitMap(m map[string]mpi.KindStats) {
	for k, c := range m {
		scrubWait(&c)
		m[k] = c
	}
}
