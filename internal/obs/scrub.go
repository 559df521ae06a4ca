package obs

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
	rep.WaitStates = nil
	rep.CriticalPath = nil
	rep.LostTime = nil
	rep.Build = nil
	if rep.Comms != nil {
		scrubCommTotals(&rep.Comms.Totals)
		scrubCommTotalsMap(rep.Comms.ByKind)
	}
	for i := range rep.Ranks {
		r := &rep.Ranks[i]
		r.Wall1Ns = 0
		r.Wall2Ns = 0
		r.PhaseWallNs = nil
		r.Transport = nil
		r.PeakRSSBytes = 0
		if r.Ingest != nil {
			in := *r.Ingest
			in.WallNs = 0
			r.Ingest = &in
		}
		scrubCommTotals(&r.Comm)
		scrubCommTotalsMap(r.CommByKind)
		for k := range r.Iterations {
			r.Iterations[k].WallNs = 0
			scrubCommTotals(&r.Iterations[k].Comm)
			scrubCommTotalsMap(r.Iterations[k].CommByKind)
		}
	}
}

// scrubCommTotals zeroes the wall-clock wait measurement of one comm
// record. The traffic counters and BarrierSyncs stay: they are
// deterministic and the parity check's point.
func scrubCommTotals(c *CommTotals) {
	c.BarrierWaitWallNs = 0
}

func scrubCommTotalsMap(m map[string]CommTotals) {
	for k, c := range m {
		scrubCommTotals(&c)
		m[k] = c
	}
}
