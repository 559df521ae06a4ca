package core

import (
	"dinfomap/internal/graph"
	"dinfomap/internal/obs"
)

// BuildReport assembles the structured JSON run report (obs.Report)
// from a finished run: the convergence traces, modeled and host
// timings, partition balance, and the full per-rank per-phase
// measurements. cfg should be the Config the run was started with.
func BuildReport(g *graph.Graph, cfg Config, res *Result) *obs.Report {
	cfg = cfg.withDefaults()
	rep := &obs.Report{
		Schema: obs.ReportSchema,
		Graph: obs.GraphInfo{
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			TotalWeight: g.TotalWeight(),
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
			MinLabel:            res.PerRankMinLabel,
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
	for r := 0; r < cfg.P && r < len(res.PerRankPhase); r++ {
		rr := obs.RankReport{
			Rank:   r,
			Phases: make(map[string]obs.PhaseCost, stage1Phases),
		}
		for ph := obs.PhaseID(0); ph < stage1Phases; ph++ {
			rr.Phases[ph.Name()] = res.PerRankPhase[r][ph]
		}
		// A run that never merged recorded no stage 2 and reports none.
		if r < len(res.PerRankStage2Phase) && res.PerRankStage2Phase[r] != (PhaseCosts{}) {
			s2 := &res.PerRankStage2Phase[r]
			rr.Stage2 = s2.Total()
			rr.Stage2Phases = make(map[string]obs.PhaseCost, stage2Phases)
			for ph := obs.PhaseID(0); ph < stage2Phases; ph++ {
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
		if r < len(res.PerRankWall1) {
			rr.Wall1Ns = res.PerRankWall1[r].Nanoseconds()
		}
		if r < len(res.PerRankWall2) {
			rr.Wall2Ns = res.PerRankWall2[r].Nanoseconds()
		}
		if r < len(res.PerRankEvals) {
			rr.DeltaEvals = res.PerRankEvals[r]
		}
		if r < len(res.CommStats) {
			rr.Comm = obs.CommFromStats(res.CommStats[r])
			rr.CommByKind = obs.ByKindFromStats(res.CommStats[r])
		}
		if r < len(res.PerRankIterations) {
			rr.Iterations = res.PerRankIterations[r]
		}
		if r < len(res.PerRankIngest) {
			rr.Ingest = res.PerRankIngest[r]
		}
		if r < len(res.Transports) {
			rr.Transport = res.Transports[r]
		}
		if r < len(res.PerRankPeakRSS) {
			rr.PeakRSSBytes = res.PerRankPeakRSS[r]
		}
		rep.Ranks = append(rep.Ranks, rr)
	}
	rep.Comms = obs.BuildComms(res.CommStats)
	if journaled {
		rep.WaitStates = obs.BuildWaitStates(res.CommStats, cfg.Journal)
		rep.LostTime = obs.BuildLostTime(res.CommStats, cfg.Journal)
		rep.CriticalPath = obs.CriticalPath(cfg.Journal, res.WaitRecorder)
	}
	build := obs.ReadBuild()
	rep.Build = &build
	return rep
}
