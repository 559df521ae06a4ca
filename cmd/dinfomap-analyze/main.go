// Command dinfomap-analyze turns a dinfomap run report into a ranked
// bottleneck analysis:
//
//	dinfomap -p 4 -dataset amazon -metrics run.json
//	dinfomap-analyze run.json
//
// It prints the cross-rank critical path (which rank gated which
// stretch of the run, and in which phase), the per-rank lost-time
// straggler table (barrier-skew / imbalance attribution), and a comparison of the measured blocked time
// against the alpha-beta modeled communication time per message kind —
// the measured counterpart of the model the experiments report.
//
// The run wall, lost-time and critical-path sections need a report
// from a journaled run (one written via -metrics, or
// core.Config.Journal set); on a report without them the tool still
// re-checks conservation and prints the modeled communication table.
//
// Exit status: 0 clean, 1 conservation violation between the per-kind
// splits and the totals, 2 usage, I/O, or parse error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

func main() {
	var (
		topN    = flag.Int("top", 8, "critical-path segments and straggler rows to print")
		jsonOut = flag.Bool("json", false, "emit the analysis as JSON instead of text")
		version = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dinfomap-analyze [flags] <run-report.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuild().String())
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		fatal(err)
	}

	a := analyze(rep)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fatal(err)
		}
	} else {
		a.writeText(os.Stdout, *topN)
	}
	code := 0
	if !a.ConservationOK {
		fmt.Fprintln(os.Stderr, "dinfomap-analyze: per-kind communication splits do not sum to the totals")
		code = 1
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dinfomap-analyze:", err)
	os.Exit(2)
}

// pathSegment is one critical-path segment ranked for the bottleneck
// report.
type pathSegment struct {
	Rank          int    `json:"rank"`
	StartWallNs   int64  `json:"start_wall_ns"`
	DurWallNs     int64  `json:"dur_wall_ns"`
	Barrier       int    `json:"barrier_seq"`
	DominantPhase string `json:"dominant_phase,omitempty"`
	// PathFraction is this segment's share of the whole path.
	PathFraction float64 `json:"path_fraction"`
}

// kindModel compares measured blocked time against the alpha-beta
// modeled communication time for one message kind.
type kindModel struct {
	Kind string `json:"kind"`
	// ModeledNs = alpha*(msgs_sent+collective_msgs) +
	// beta*(bytes_sent+collective_bytes), summed over ranks.
	ModeledNs int64 `json:"modeled_ns"`
	// BlockedWallNs is the measured blocked time charged to the kind
	// (collective synchronization skew), summed over ranks.
	BlockedWallNs int64 `json:"blocked_wall_ns"`
	BytesSent     int64 `json:"bytes_sent"`
	Msgs          int64 `json:"msgs"`
}

// straggler is one row of the lost-time table, ranked by blocked time
// (barrier skew: the only way a rank of the collectives-only core
// blocks).
type straggler struct {
	Rank              int    `json:"rank"`
	BarrierSkewWallNs int64  `json:"barrier_skew_wall_ns"`
	ImbalanceWallNs   int64  `json:"imbalance_wall_ns"`
	TopPhase          string `json:"top_phase,omitempty"`
}

// analysis is the machine-readable output of dinfomap-analyze.
type analysis struct {
	Source    string         `json:"source"` // dataset/graph summary line
	P         int            `json:"p"`
	Build     *obs.BuildInfo `json:"build,omitempty"`
	RunWallNs int64          `json:"run_wall_ns"`
	// PathWallNs sums the critical-path segments; PathCoverage is its
	// share of RunWallNs (near 1 on a healthy recorded run).
	PathWallNs   int64         `json:"path_wall_ns"`
	PathCoverage float64       `json:"path_coverage"`
	Path         []pathSegment `json:"critical_path,omitempty"`
	Stragglers   []straggler   `json:"stragglers,omitempty"`
	// TotalLostWallNs is the report's comms.totals blocked time;
	// LostFractionWall is its lost-time fraction.
	TotalLostWallNs  int64       `json:"total_lost_wall_ns"`
	LostFractionWall float64     `json:"lost_fraction_wall"`
	Kinds            []kindModel `json:"kinds,omitempty"`
	ConservationOK   bool        `json:"conservation_ok"`
	// Ingest holds each rank's rank-local ingest report, in rank order,
	// when the ranks read an edge-list file themselves.
	Ingest []rankIngest `json:"ingest,omitempty"`
	// Memory holds each rank's memory figures, in rank order: its live
	// heap at the three phase boundaries and, on multi-process runs, its
	// process's peak resident set size.
	Memory []rankMemory `json:"memory,omitempty"`
}

// rankMemory is one rank's row of the memory table.
type rankMemory struct {
	Rank         int      `json:"rank"`
	PeakRSSBytes int64    `json:"peak_rss_bytes,omitempty"`
	LiveBytes    [3]int64 `json:"live_bytes"`
}

// rankIngest is one rank's row of the ingest table.
type rankIngest struct {
	Rank int `json:"rank"`
	obs.IngestReport
}

// analyze distills the report into the ranked bottleneck analysis.
func analyze(rep *obs.Report) *analysis {
	a := &analysis{
		Source: fmt.Sprintf("%d vertices, %d edges", rep.Graph.Vertices, rep.Graph.Edges),
		P:      rep.Config.P,
		Build:  rep.Build,
	}
	for _, r := range rep.Ranks {
		if r.Ingest != nil {
			a.Ingest = append(a.Ingest, rankIngest{Rank: r.Rank, IngestReport: *r.Ingest})
		}
		if r.PeakRSSBytes != 0 || r.LiveBytes != [3]int64{} {
			a.Memory = append(a.Memory, rankMemory{Rank: r.Rank, PeakRSSBytes: r.PeakRSSBytes, LiveBytes: r.LiveBytes})
		}
	}
	a.RunWallNs = rep.Timing.RunWallNs

	for _, seg := range rep.CriticalPath {
		a.PathWallNs += seg.DurNs()
	}
	for _, seg := range rep.CriticalPath {
		ps := pathSegment{
			Rank:          seg.Rank,
			StartWallNs:   seg.StartWallNs,
			DurWallNs:     seg.DurNs(),
			Barrier:       seg.Barrier,
			DominantPhase: dominantPhase(seg.ByPhaseWallNs),
		}
		if a.PathWallNs > 0 {
			ps.PathFraction = float64(ps.DurWallNs) / float64(a.PathWallNs)
		}
		a.Path = append(a.Path, ps)
	}
	sort.SliceStable(a.Path, func(i, j int) bool { return a.Path[i].DurWallNs > a.Path[j].DurWallNs })
	if a.RunWallNs > 0 {
		a.PathCoverage = float64(a.PathWallNs) / float64(a.RunWallNs)
	}

	// A rank's blocked time is its barrier skew, in its comm totals;
	// the lost-time section adds the journal-derived columns.
	if rep.Comms != nil {
		a.TotalLostWallNs = rep.Comms.Totals.BarrierWaitNs
	}
	if rep.LostTime != nil {
		a.LostFractionWall = rep.LostTime.LostFractionWall
		for _, rl := range rep.LostTime.Ranks {
			s := straggler{
				Rank:            rl.Rank,
				ImbalanceWallNs: rl.ImbalanceWallNs,
				TopPhase:        dominantPhase(rl.ByPhaseWallNs),
			}
			if rl.Rank >= 0 && rl.Rank < len(rep.Ranks) {
				s.BarrierSkewWallNs = rep.Ranks[rl.Rank].Comm.BarrierWaitNs
			}
			a.Stragglers = append(a.Stragglers, s)
		}
		sort.SliceStable(a.Stragglers, func(i, j int) bool {
			return a.Stragglers[i].BarrierSkewWallNs > a.Stragglers[j].BarrierSkewWallNs
		})
	}

	a.ConservationOK = true
	if rep.Comms != nil && len(rep.Comms.ByKind) > 0 {
		m := trace.DefaultCostModel()
		var sum mpi.KindStats
		names := make([]string, 0, len(rep.Comms.ByKind))
		for name := range rep.Comms.ByKind {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			kt := rep.Comms.ByKind[name]
			sum.Add(kt)
			msgs := kt.MsgsSent + kt.CollectiveMsgs
			bytes := kt.BytesSent + kt.CollectiveBytes
			a.Kinds = append(a.Kinds, kindModel{
				Kind:          name,
				ModeledNs:     (time.Duration(msgs)*m.Alpha + time.Duration(bytes)*m.BetaPerByte).Nanoseconds(),
				BlockedWallNs: kt.BarrierWaitNs,
				BytesSent:     bytes,
				Msgs:          msgs,
			})
		}
		sort.SliceStable(a.Kinds, func(i, j int) bool {
			return a.Kinds[i].BlockedWallNs > a.Kinds[j].BlockedWallNs
		})
		a.ConservationOK = sum == rep.Comms.Totals
	}
	return a
}

// dominantPhase returns the phase with the largest attributed time,
// ties broken by name for determinism.
func dominantPhase(byPhase map[string]int64) string {
	best, bestNs := "", int64(0)
	names := make([]string, 0, len(byPhase))
	for name := range byPhase {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ns := byPhase[name]; ns > bestNs {
			best, bestNs = name, ns
		}
	}
	return best
}

// writeText renders the analysis as the human-readable bottleneck
// report.
func (a *analysis) writeText(w *os.File, topN int) {
	fmt.Fprintf(w, "run: %s, p=%d\n", a.Source, a.P)
	if a.Build != nil {
		fmt.Fprintf(w, "build: %s\n", a.Build.String())
	}

	if len(a.Ingest) > 0 {
		fmt.Fprintln(w, "\ningest: each rank read its 1/p of the edge list")
		for _, in := range a.Ingest {
			fmt.Fprintf(w, "  rank %2d  %10d bytes read  %9d arcs sent  %9d arcs kept  %10v\n",
				in.Rank, in.BytesRead, in.ArcsSent, in.ArcsKept, dur(in.WallNs))
		}
	}
	if len(a.Memory) > 0 {
		fmt.Fprintln(w, "\nmemory: each rank's peak resident set (rank processes only) and live heap after")
		fmt.Fprintln(w, "ingest, after preprocessing and after the first merge (process-wide on in-process runs)")
		for _, m := range a.Memory {
			peak := "       -   "
			if m.PeakRSSBytes != 0 {
				peak = fmt.Sprintf("%8.1f MB", mb(m.PeakRSSBytes))
			}
			fmt.Fprintf(w, "  rank %2d  %s peak RSS  %8.1f MB live after ingest  %8.1f MB after preprocess  %8.1f MB after merge\n",
				m.Rank, peak, mb(m.LiveBytes[0]), mb(m.LiveBytes[1]), mb(m.LiveBytes[2]))
		}
	}

	if len(a.Path) == 0 {
		fmt.Fprintln(w, "\nno critical path in report (run without a journal/-metrics from an older build?)")
	} else {
		fmt.Fprintf(w, "\ncritical path: %v across %d segments (%.1f%% of run wall %v; remainder is synchronization release/wake latency)\n",
			dur(a.PathWallNs), len(a.Path), 100*a.PathCoverage, dur(a.RunWallNs))
		for i, seg := range a.Path {
			if i >= topN {
				fmt.Fprintf(w, "  ... %d more segments\n", len(a.Path)-topN)
				break
			}
			phase := seg.DominantPhase
			if phase == "" {
				phase = "(runtime)"
			}
			fmt.Fprintf(w, "  rank %2d  %10v  %5.1f%%  at +%-10v  %-20s  ends at sync %d\n",
				seg.Rank, dur(seg.DurWallNs), 100*seg.PathFraction, dur(seg.StartWallNs),
				phase, seg.Barrier)
		}
	}

	if len(a.Stragglers) > 0 {
		fmt.Fprintf(w, "\nlost time: %v blocked across ranks (%.1f%% of total rank-time)\n",
			dur(a.TotalLostWallNs), 100*a.LostFractionWall)
		fmt.Fprintf(w, "  %-4s  %12s  %12s  %s\n",
			"rank", "barrier-skew", "imbalance", "top phase")
		for i, s := range a.Stragglers {
			if i >= topN {
				fmt.Fprintf(w, "  ... %d more ranks\n", len(a.Stragglers)-topN)
				break
			}
			fmt.Fprintf(w, "  %-4d  %12v  %12v  %s\n",
				s.Rank, dur(s.BarrierSkewWallNs), dur(s.ImbalanceWallNs), s.TopPhase)
		}
	}

	if len(a.Kinds) > 0 {
		fmt.Fprintln(w, "\nmeasured blocked vs alpha-beta modeled comm, per kind:")
		fmt.Fprintf(w, "  %-16s  %12s  %12s  %12s  %12s\n",
			"kind", "blocked", "modeled", "msgs", "bytes")
		for _, k := range a.Kinds {
			fmt.Fprintf(w, "  %-16s  %12v  %12v  %12d  %12d\n",
				k.Kind, dur(k.BlockedWallNs), dur(k.ModeledNs), k.Msgs, k.BytesSent)
		}
	}

	if a.ConservationOK {
		fmt.Fprintln(w, "\nconservation: ok (per-kind splits sum to totals)")
	} else {
		fmt.Fprintln(w, "\nconservation: VIOLATED (per-kind splits do not sum to totals)")
	}
}

// dur renders nanoseconds compactly.
func dur(ns int64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}

// mb renders bytes in MiB.
func mb(b int64) float64 { return float64(b) / (1 << 20) }
