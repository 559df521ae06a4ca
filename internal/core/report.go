package core

import "dinfomap/internal/obs"

// BuildReport assembles the structured JSON run report (obs.Report)
// from a finished run: the graph's size, the convergence traces,
// modeled and host timings, partition balance, and the full per-rank
// per-phase measurements, one row per rank artifact. cfg should be the
// Config the run was started with; its journal, when set, adds the
// measured phase and run walls and the lost-time and critical-path
// sections.
func BuildReport(cfg Config, res *Result) *obs.Report {
	cfg = cfg.withDefaults()
	rep := &obs.Report{
		Schema: obs.ReportSchema,
		Graph: obs.GraphInfo{
			Vertices:    len(res.Communities),
			Edges:       res.NumEdges,
			TotalWeight: res.TotalWeight,
		},
		Config: obs.ConfigInfo{
			P:     cfg.P,
			DHigh: cfg.DHigh,
			Seed:  cfg.Seed,
			Theta: cfg.Theta,
		},
		Quality: obs.QualityInfo{
			Codelength:        res.Codelength,
			InitialCodelength: res.InitialCodelength,
			NumModules:        res.NumModules,
		},
		Convergence: obs.ConvergenceInfo{
			MDLTrace:            res.MDLTrace,
			MergeRate:           res.MergeRate,
			OuterIterations:     res.OuterIterations,
			Stage1Sweeps:        res.Stage1Iterations,
			Stage2Sweeps:        res.Stage2Iterations,
			CollectivesPerRound: res.CollectivesPerRound,
		},
		Timing: obs.TimingInfo{
			Stage1WallNs:    res.Stage1Wall.Nanoseconds(),
			Stage2WallNs:    res.Stage2Wall.Nanoseconds(),
			Stage1ModeledNs: res.Stage1Modeled.Nanoseconds(),
			Stage2ModeledNs: res.Stage2Modeled.Nanoseconds(),
			TotalModeledNs:  res.TotalModeled().Nanoseconds(),
			PhaseModeledNs:  make(map[string]int64, len(res.PhaseModeled)),
		},
		Partition: obs.PartitionInfo{
			NumHubs:       res.Partition.NumHubs,
			MinEdges:      res.Partition.MinEdges,
			MaxEdges:      res.Partition.MaxEdges,
			MinGhosts:     res.Partition.MinGhosts,
			MaxGhosts:     res.Partition.MaxGhosts,
			EdgeImbalance: res.Partition.EdgeImbalance,
		},
		MaxRankBytes:     res.MaxRankBytes,
		DeltaEvaluations: res.DeltaEvaluations,
	}
	//dinfomap:unordered-ok map-to-map copy; encoding/json sorts report map keys on output
	for ph, d := range res.PhaseModeled {
		rep.Timing.PhaseModeledNs[ph] = d.Nanoseconds()
	}
	journaled := cfg.Journal.NumRanks() > 0
	if journaled {
		rep.Timing.PhaseWallNs = make(map[string]int64)
	}
	for r, a := range res.Ranks {
		rr := obs.RankReport{
			Rank:         r,
			Phases:       make(map[string]obs.PhaseCost, stage1Phases),
			Wall1Ns:      a.Wall1Ns,
			Wall2Ns:      a.Wall2Ns,
			DeltaEvals:   a.Evals,
			Comm:         a.Stats.KindStats,
			CommByKind:   obs.ByKindFromStats(a.Stats),
			Iterations:   a.Iterations,
			Ingest:       a.Ingest,
			Transport:    a.Transport,
			PeakRSSBytes: a.PeakRSSBytes,
			LiveBytes:    a.LiveBytes,
		}
		for ph := obs.PhaseID(0); ph < stage1Phases; ph++ {
			rr.Phases[ph.Name()] = a.Phase[ph]
		}
		// A run that never merged recorded no stage 2 and reports none.
		if s2 := &a.Stage2Phase; *s2 != (PhaseCosts{}) {
			rr.Stage2 = s2.Total()
			rr.Stage2Phases = make(map[string]obs.PhaseCost, obs.NumPhases)
			for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
				rr.Stage2Phases[ph.Name()] = s2[ph]
			}
		}
		if journaled && r < cfg.Journal.NumRanks() {
			wall := cfg.Journal.PhaseWall(r)
			if len(wall) > 0 {
				rr.PhaseWallNs = make(map[string]int64, len(wall))
			}
			//dinfomap:unordered-ok map-to-map copy plus max reduction; commutative and json-sorted on output
			for ph, d := range wall {
				rr.PhaseWallNs[ph] = d.Nanoseconds()
				if d.Nanoseconds() > rep.Timing.PhaseWallNs[ph] {
					rep.Timing.PhaseWallNs[ph] = d.Nanoseconds()
				}
			}
		}
		rep.Ranks = append(rep.Ranks, rr)
		rep.Convergence.MinLabel = append(rep.Convergence.MinLabel, a.MinLabel)
	}
	rep.Comms = obs.BuildComms(res.CommStats)
	if journaled {
		rep.Timing.RunWallNs = obs.RunWall(cfg.Journal).Nanoseconds()
		rep.LostTime = obs.BuildLostTime(res.CommStats, cfg.Journal)
		rep.CriticalPath = obs.CriticalPath(cfg.Journal)
	}
	build := obs.ReadBuild()
	rep.Build = &build
	return rep
}
