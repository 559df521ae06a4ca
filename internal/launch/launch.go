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
// artifact (Result.NumEdges, Result.TotalWeight).
//
// When the run is observed (Spec.Observe), each child journals and
// records its rank against the launcher's epoch and ships the result as
// the telemetry section of its artifact. The launcher merges the
// sections into one journal, its wait recorder included: the input of
// a merged Chrome trace and of the report's wait-state and
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
	// ConnectTimeout bounds mesh establishment; 0 keeps
	// mpi.DefaultConnectTimeout.
	ConnectTimeout time.Duration
	// Epoch is the shared wall-clock zero point of the whole run: the
	// mesh's stamps, every child journal and the merged journal all
	// anchor to it. Zero means the time of launch.
	Epoch time.Time
	// Observe makes every rank journal and record its run and ship that
	// telemetry in its artifact; Run then returns the merged journal.
	Observe bool
}

// Run runs spec with one OS process per rank and returns the assembled
// result. Every binary that calls Run must call ServeChild first thing
// in main (or TestMain): the ranks are the running binary, re-executed
// without arguments.
//
// When spec.Observe is set, Run also returns the journal merged from
// the ranks' telemetry sections, wait records included; otherwise the
// journal is nil.
func Run(spec Spec) (*core.Result, *obs.Journal, error) {
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

	specPath := filepath.Join(dir, "spec.json")
	data, err := json.Marshal(childSpec{Spec: spec, Addrs: addrs})
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

	if !spec.Observe {
		return res, nil, nil
	}
	// The merged journal holds the telemetry from here on; the result's
	// artifacts let go of their sections.
	sections := make([]*obs.RankTelemetry, spec.P)
	for r, a := range arts {
		sections[r], a.Telemetry = a.Telemetry, nil
	}
	return res, obs.MergeTelemetry(spec.P, spec.Epoch, sections), nil
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
