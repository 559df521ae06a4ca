// Package launch runs the distributed algorithm with one OS process per
// rank, the equivalent of the paper's MPI ranks. Run binds one TCP
// loopback listener per rank, re-executes the running binary once per
// rank (the rank's listener passed as fd 3), and assembles the
// children's artifact files into the same core.Result an in-process
// run produces: bit-identical for the same graph, config and seed,
// because the children run the identical rank program on the same
// Input. A file input is read rank-locally: each child parses only the
// lines that start in its 1/P of the file's bytes and never builds the
// whole graph (core.RunRankFile); a dataset is generated whole by every
// child, which cuts its own rows from it (core.RunRank).
//
// Each rank process runs with GOMAXPROCS = max(1, NumCPU/P), one core
// per rank the way MPI places its ranks, unless the launcher's own
// environment sets GOMAXPROCS, which then reaches every rank unchanged
// (see childEnviron).
//
// The launcher does not hold the graph. It only checks that the input
// exists before spawning, and the graph's size rides in rank 0's
// artifact (Result.NumEdges).
//
// When the run is observed (a non-nil journal), the launcher also binds
// a telemetry uplink listener, and each child streams its journal
// events, periodic comm-stats snapshots and a final lossless telemetry
// section back over that side channel. The launcher estimates each
// child's clock offset from ping/pong samples, feeds the live flow into
// its own journal (so a live debug surface is mesh-wide), and merges
// the final sections into one aligned journal and wait recorder: the
// inputs of a merged Chrome trace and of the report's wait-state and
// critical-path sections.
package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dinfomap/internal/core"
	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// Input names the graph of a launch: a registry dataset at a scale
// (gen.Load) when Dataset is set, which every rank process generates,
// else the edge-list file at Path, which the rank processes read 1/P
// each.
type Input struct {
	Dataset    string
	Scale      float64
	SeedOffset uint64
	Path       string
}

// Check reports, without reading the graph, why Load could not load
// it: an unknown dataset name, a missing input, a path that does not
// exist, or a directory.
func (in Input) Check() error {
	if in.Dataset != "" {
		_, err := gen.Lookup(in.Dataset)
		return err
	}
	if in.Path == "" {
		return fmt.Errorf("need an edge-list file or -dataset (known: %v)", gen.Names())
	}
	fi, err := os.Stat(in.Path)
	if err != nil {
		return err
	}
	if fi.IsDir() {
		return fmt.Errorf("%s is a directory, not an edge-list file", in.Path)
	}
	return nil
}

// Load builds the graph the input names.
func (in Input) Load() (*graph.Graph, error) {
	if in.Dataset != "" {
		g, _, err := gen.Load(in.Dataset, in.Scale, in.SeedOffset)
		return g, err
	}
	if err := in.Check(); err != nil {
		return nil, err
	}
	f, err := os.Open(in.Path)
	if err != nil {
		return nil, err
	}
	//dinfomap:close-ok read-only file; close errors cannot lose data
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// Spec is everything the rank processes must reproduce exactly: the
// graph, the algorithm's parameters, and the run's shared settings.
type Spec struct {
	Input    Input
	P, DHigh int
	Seed     uint64
	// TracePath, when set, makes each rank write its own timeline to
	// TracePath.rank<r>.
	TracePath string
	// ConnectTimeout bounds mesh establishment; 0 keeps
	// mpi.DefaultConnectTimeout.
	ConnectTimeout time.Duration
	// Epoch is the shared wall-clock zero point of the whole run: the
	// mesh's stamps, every child journal and the launcher's journal all
	// anchor to it, so cross-process offsets are small residuals. Zero
	// means the time of launch.
	Epoch time.Time
}

// Telemetry is what the telemetry uplink recovers from a finished run:
// the merged clock-aligned journal and wait recorder, plus the per-rank
// clock estimates behind the alignment.
type Telemetry struct {
	Journal  *obs.Journal
	Recorder *mpi.Recorder
	Clocks   []obs.ClockEstimate
}

// Run runs spec with one OS process per rank and returns the assembled
// result. Every binary that calls Run must call ServeChild first thing
// in main (or TestMain): the ranks are the running binary, re-executed
// without arguments.
//
// journal, when non-nil, is the launcher's live journal: a telemetry
// uplink is offered to every child, live events land in the journal as
// they stream in (clock-aligned with the running estimate), lm (which
// may be nil) receives transport counters, and the returned Telemetry
// carries the merged post-run view. The journal finishes when Run
// returns, whatever the outcome. With a nil journal the children run
// unobserved and the Telemetry is nil.
func Run(spec Spec, journal *obs.Journal, lm *obs.Metrics) (*core.Result, *Telemetry, error) {
	if journal != nil {
		defer journal.Finish()
	}
	if err := spec.Input.Check(); err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary: %w", err)
	}
	listeners, addrs, err := mpi.ListenRanks("tcp", spec.P, "")
	if err != nil {
		return nil, nil, err
	}
	defer closeListeners(listeners)

	dir, err := os.MkdirTemp("", "dinfomap-proc")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	if spec.Epoch.IsZero() {
		spec.Epoch = time.Now()
	}

	// Telemetry uplink: bind the side-channel listener and collect every
	// child's stream.
	var coll *obs.Collector
	var upAddr string
	var upLn net.Listener
	var upWG sync.WaitGroup
	if journal != nil {
		upLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("telemetry uplink listener: %w", err)
		}
		upAddr = upLn.Addr().String()
		coll = obs.NewCollector(spec.P, journal, lm)
		version := obs.ReadBuild().String()
		upWG.Add(1)
		go func() {
			defer upWG.Done()
			var conns sync.WaitGroup
			defer conns.Wait()
			for {
				conn, err := upLn.Accept()
				if err != nil {
					return // listener closed: launch is over
				}
				conns.Add(1)
				go func(conn net.Conn) {
					defer conns.Done()
					peer, err := mpi.AcceptUplink(conn, spec.P, spec.Epoch, version, spec.ConnectTimeout)
					if err != nil {
						fmt.Fprintln(os.Stderr, "dinfomap: telemetry uplink:", err)
						//dinfomap:close-ok rejected handshake; telemetry is best-effort
						conn.Close()
						return
					}
					// A read error here means the child died mid-stream;
					// its exit status reports the failure, telemetry
					// just ends early.
					if err := peer.Serve(coll, 0); err != nil {
						fmt.Fprintf(os.Stderr, "dinfomap: telemetry uplink rank %d: %v\n", peer.Rank(), err)
					}
					peer.Close()
				}(conn)
			}
		}()
	}
	// The uplink listener closes (and its goroutines drain) before any
	// return below; LIFO ordering runs this ahead of journal.Finish.
	stopUplink := func() {
		if upLn != nil {
			//dinfomap:close-ok run is over; children already said bye or died
			upLn.Close()
			upWG.Wait()
			upLn = nil
		}
	}
	defer stopUplink()

	specPath := filepath.Join(dir, "spec.json")
	data, err := json.Marshal(childSpec{Spec: spec, Addrs: addrs, Uplink: upAddr})
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(specPath, data, 0o600); err != nil {
		return nil, nil, err
	}

	env := childEnviron(os.Environ(), runtime.NumCPU(), spec.P)
	cmds := make([]*exec.Cmd, spec.P)
	for r := range cmds {
		f, err := listenerFile(listeners[r])
		if err != nil {
			killStarted(cmds)
			return nil, nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(env, fmt.Sprintf("%s=%d:%s", childEnv, r, specPath))
		cmd.Stdout = os.Stderr // children print diagnostics only
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{f} // becomes fd 3 in the child
		err = cmd.Start()
		//dinfomap:close-ok launcher's dup of the listener fd; the child holds its own
		f.Close()
		if err != nil {
			killStarted(cmds)
			return nil, nil, fmt.Errorf("spawning rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	// The children hold dup'd listener fds; the launcher's copies can go
	// before the mesh even connects.
	closeListeners(listeners)

	var errs []error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("rank %d process: %w", r, err))
		}
	}
	// Children are gone; their uplink streams have ended. Drain the
	// collector before merging (or before reporting failure, so the
	// launcher's journal still finishes with whatever telemetry arrived).
	stopUplink()
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}

	arts := make([]*core.RankArtifact, spec.P)
	for r := range arts {
		data, err := os.ReadFile(artifactPath(specPath, r))
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d artifact: %w", r, err)
		}
		arts[r] = &core.RankArtifact{}
		if err := json.Unmarshal(data, arts[r]); err != nil {
			return nil, nil, fmt.Errorf("rank %d artifact: %w", r, err)
		}
	}
	res, err := core.Assemble(spec.config(), arts)
	if err != nil {
		return nil, nil, err
	}

	var tel *Telemetry
	if coll != nil {
		merged, rec := coll.Merge(spec.Epoch)
		tel = &Telemetry{Journal: merged, Recorder: rec, Clocks: coll.Clocks()}
		res.WaitRecorder = rec
		res.Clocks = tel.Clocks
	}
	return res, tel, nil
}

// childEnviron returns the environment of a p-rank run's children on a
// host with numCPU cores: environ plus GOMAXPROCS = max(1, numCPU/p)
// when environ does not set GOMAXPROCS itself. A Go runtime sized for
// the whole host makes the thread that must wake a rank blocked in a
// collective wait behind the other ranks' compute threads; one core per
// rank cuts an allreduce after a busy gap from hundreds of microseconds
// to tens (DESIGN.md, "One core per rank process").
func childEnviron(environ []string, numCPU, p int) []string {
	for _, kv := range environ {
		if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok && v != "" {
			return environ
		}
	}
	procs := max(1, numCPU/p)
	return append(environ[:len(environ):len(environ)], "GOMAXPROCS="+strconv.Itoa(procs))
}

// config is the algorithm configuration every rank and the assembly
// share.
func (s Spec) config() core.Config {
	return core.Config{P: s.P, DHigh: s.DHigh, Seed: s.Seed}
}

// listenerFile dups the listener's fd for inheritance by a child.
func listenerFile(ln net.Listener) (*os.File, error) {
	tl, ok := ln.(*net.TCPListener)
	if !ok {
		return nil, fmt.Errorf("listener %T cannot be passed to a child process", ln)
	}
	return tl.File()
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			//dinfomap:close-ok idempotent shutdown of loopback listeners; double close is harmless
			ln.Close()
		}
	}
}

// killStarted tears down already-started children after a spawn error.
func killStarted(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		cmd.Process.Kill()
		cmd.Wait()
	}
}
