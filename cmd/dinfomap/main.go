// Command dinfomap runs the distributed Infomap algorithm on a graph.
//
// Usage:
//
//	dinfomap -p 8 [-dhigh N] [-seed S] [-out comms.txt] graph.txt
//	dinfomap -p 8 -dataset uk-2005 [-scale 0.5]
//	dinfomap -p 8 -dataset amazon -trace run.trace.json -metrics run.json
//
// The input is a whitespace-separated edge list ("u v" or "u v w" per
// line, '#' comments), or one of the built-in synthetic stand-in
// datasets. The tool prints the codelength, module count, per-stage
// modeled times, and the Figure 8 phase breakdown; with -out it also
// writes "vertex community" lines.
//
// Observability: -trace writes a Chrome trace-event JSON timeline (one
// row per rank; open in Perfetto or chrome://tracing), -metrics writes
// the structured JSON run report, and -cpuprofile / -memprofile /
// -pprof wire in the standard Go profilers. CPU profiles are labeled
// per simulated rank; isolate one with go tool pprof -tagfocus rank=3.
//
// With -transport=proc, -trace and -metrics cover the whole mesh: each
// rank process ships its journal events and wait records in the
// artifact it writes, and the launcher merges them into one view — a
// single trace with one row per rank process and cross-process message
// flow arrows, and a run report carrying the same wait-state and
// critical-path sections as in-process runs (plus per-rank transport
// counters).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dinfomap"
	"dinfomap/internal/launch"
	"dinfomap/internal/trace"
)

func main() {
	launch.ServeChild()
	var (
		p         = flag.Int("p", 4, "number of ranks")
		dHigh     = flag.Int("dhigh", 0, "delegate degree threshold (0 = auto; ignored with -p 1, which delegates nothing)")
		seed      = flag.Uint64("seed", 1, "random seed")
		dataset   = flag.String("dataset", "", "built-in dataset name instead of a file")
		scale     = flag.Float64("scale", 1.0, "built-in dataset scale factor")
		transport = flag.String("transport", "goroutine",
			"rank backend: goroutine (in-process) or proc (one OS process per rank over TCP)")
		connectTimeout = flag.Duration("connect-timeout", 30*time.Second,
			"proc transport: budget for establishing the rank mesh")
		outPath = flag.String("out", "", "write 'vertex community' lines to this file")
		quiet   = flag.Bool("q", false, "suppress the breakdown report")

		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file (-transport=proc merges every rank process onto one timeline)")
		metricsPath = flag.String("metrics", "", "write the structured JSON run report to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		version     = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(dinfomap.ReadBuildProvenance().String())
		return
	}

	multiproc := false
	switch *transport {
	case "goroutine":
	case "proc":
		multiproc = true
	default:
		fatal(fmt.Errorf("unknown -transport %q (want goroutine or proc)", *transport))
	}
	// A bad input fails here, before any rank process starts: with
	// -transport=proc the launcher itself never reads the graph.
	in := launch.Input{Dataset: *dataset, Scale: *scale, Path: flag.Arg(0)}
	if err := in.Check(); err != nil {
		fatal(err)
	}

	// The journal feeds -trace and the wait-state sections of the
	// -metrics report (the critical path needs span timings, so a report
	// without a journal would ship without it). With -transport=proc the
	// events happen in the rank processes, and the launcher returns the
	// journal it merges from their artifacts.
	observe := *tracePath != "" || *metricsPath != ""
	var journal *dinfomap.RunJournal
	if observe && !multiproc {
		journal = dinfomap.NewRunJournal(*p)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dinfomap: pprof listener:", err)
			}
		}()
		fmt.Printf("pprof:  http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dinfomap:", err)
			}
		}()
	}

	// The ranks read a file input themselves, each its 1/P (a dataset
	// is generated whole). The launcher parses the file only after the
	// run, and only for outputs that need it, so it never competes with
	// the ranks for the cores or holds the graph beside them.
	var g *dinfomap.Graph
	var err error
	if !multiproc && in.Dataset != "" {
		g, err = in.Load()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	}

	cfg := dinfomap.DistributedConfig{
		P: *p, DHigh: *dHigh, Seed: *seed, Journal: journal,
	}
	start := time.Now()
	var res *dinfomap.DistributedResult
	if multiproc {
		fmt.Printf("transport: proc (%d rank processes over TCP loopback)\n", *p)
		// Report building reads span timings from the journal; the
		// merged one gives the proc-mode report the same wait-state and
		// critical-path sections as in-process runs (res carries the
		// merged recorder).
		res, cfg.Journal, err = launch.Run(launch.Spec{
			Input: in, P: *p, DHigh: *dHigh, Seed: *seed,
			Observe: observe, ConnectTimeout: *connectTimeout,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d vertices, %d edges\n", len(res.Communities), res.NumEdges)
	} else if g != nil {
		res = dinfomap.RunDistributed(g, cfg)
	} else {
		if res, err = dinfomap.RunDistributedFile(in.Path, cfg); err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d vertices, %d edges\n", len(res.Communities), res.NumEdges)
	}
	wall := time.Since(start)
	if g == nil && *metricsPath != "" {
		if g, err = in.Load(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("modules:     %d\n", res.NumModules)
	fmt.Printf("codelength:  %.6f bits (initial %.6f)\n", res.Codelength, res.InitialCodelength)
	fmt.Printf("outer iters: %d (stage-1 sweeps %d, stage-2 sweeps %d)\n",
		res.OuterIterations, res.Stage1Iterations, res.Stage2Iterations)
	fmt.Printf("hubs:        %d delegated (max rank load %d arcs)\n",
		res.Partition.NumHubs, res.Partition.MaxEdges)
	fmt.Printf("modeled:     stage1 %v + stage2 %v = %v (host wall %v)\n",
		res.Stage1Modeled.Round(time.Microsecond), res.Stage2Modeled.Round(time.Microsecond),
		res.TotalModeled().Round(time.Microsecond), wall.Round(time.Millisecond))
	fmt.Printf("max rank traffic: %d bytes\n", res.MaxRankBytes)
	if !*quiet {
		fmt.Println("stage-1 phase breakdown (modeled, max rank):")
		for _, ph := range []string{
			trace.PhaseFindBestModule, trace.PhaseBcastDelegates,
			trace.PhaseSwapBoundary, trace.PhaseRefreshRound1,
			trace.PhaseRefreshRound2,
		} {
			fmt.Printf("  %-20s %v\n", ph, res.PhaseModeled[ph].Round(time.Microsecond))
		}
	}

	if *tracePath != "" {
		if err := writeFile(*tracePath, func(w io.Writer) error {
			return dinfomap.WriteChromeTraceWith(w, cfg.Journal, res.WaitRecorder)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d events; open in https://ui.perfetto.dev)\n",
			*tracePath, cfg.Journal.NumEvents())
	}
	if *metricsPath != "" {
		rep := dinfomap.BuildRunReport(g, cfg, res)
		if err := writeFile(*metricsPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsPath)
	}
	if *outPath != "" {
		if err := writeCommunities(*outPath, res.Communities); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeFile(*memProfile, func(w io.Writer) error {
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dinfomap:", err)
	os.Exit(1)
}

// writeFile creates path, streams fn's output through a buffered
// writer, and reports flush/close errors exactly once (the file is
// closed on every path, but never double-closed).
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fn(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return errors.Join(fmt.Errorf("writing %s", path), err)
	}
	return nil
}

func writeCommunities(path string, comms []int) error {
	return writeFile(path, func(w io.Writer) error {
		for u, c := range comms {
			if _, err := fmt.Fprintf(w, "%d %d\n", u, c); err != nil {
				return err
			}
		}
		return nil
	})
}
