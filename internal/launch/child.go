package launch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"dinfomap/internal/core"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// childEnv marks a process Run spawned as one rank. Its value is
// "<rank>:<spec file>"; the rank's artifact goes next to the spec file.
const childEnv = "DINFOMAP_LAUNCH_RANK"

// childSpec is the spec file every rank of one launch reads: the
// launch's Spec plus the mesh coordinates Run picked.
type childSpec struct {
	Spec
	Addrs []string // Addrs[r] is rank r's listen address
}

// ServeChild turns the process into one rank of a launch when Run
// spawned it, and returns at once otherwise. A rank process exits
// without returning: 0 once its artifact is written, 1 on any error,
// which is how a rank failure reaches the launcher.
func ServeChild() {
	v, ok := os.LookupEnv(childEnv)
	if !ok {
		return
	}
	if err := runChild(v); err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// readChildSpec decodes the childEnv value v and the spec file it
// names. Any malformed value or file is an error.
func readChildSpec(v string) (rank int, cs *childSpec, artifact string, err error) {
	rs, path, ok := strings.Cut(v, ":")
	if !ok || path == "" {
		return 0, nil, "", fmt.Errorf("malformed %s value %q", childEnv, v)
	}
	rank, err = strconv.Atoi(rs)
	if err != nil {
		return 0, nil, "", fmt.Errorf("malformed %s rank %q", childEnv, rs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, "", fmt.Errorf("launch spec: %w", err)
	}
	cs = &childSpec{}
	if err := json.Unmarshal(data, cs); err != nil {
		return 0, nil, "", fmt.Errorf("launch spec %s: %w", path, err)
	}
	if rank < 0 || rank >= cs.P {
		return 0, nil, "", fmt.Errorf("launch spec %s: rank %d outside a world of %d", path, rank, cs.P)
	}
	if len(cs.Addrs) != cs.P {
		return 0, nil, "", fmt.Errorf("launch spec %s: %d addresses for %d ranks", path, len(cs.Addrs), cs.P)
	}
	return rank, cs, artifactPath(path, rank), nil
}

// artifactPath is where rank writes its artifact: next to the spec.
func artifactPath(specPath string, rank int) string {
	return filepath.Join(filepath.Dir(specPath), fmt.Sprintf("rank%d.json", rank))
}

// runChild is one rank: dial the mesh, run this rank, write the
// artifact file, with the rank's telemetry section when the run is
// observed.
func runChild(v string) error {
	rank, cs, artifact, err := readChildSpec(v)
	if err != nil {
		return err
	}
	lf := os.NewFile(3, "mpi-listener")
	if lf == nil {
		return fmt.Errorf("rank %d: missing inherited listener (fd 3)", rank)
	}
	ln, err := net.FileListener(lf)
	//dinfomap:close-ok FileListener dups the fd; the original can go either way
	lf.Close()
	if err != nil {
		return fmt.Errorf("rank %d: inherited listener: %w", rank, err)
	}

	// A file input is read rank-locally during the run (each rank parses
	// its 1/P of the file); a dataset is generated whole and cut.
	run := func(cfg core.Config, t mpi.Transport) (*core.RankArtifact, error) {
		return core.RunRankFile(cs.Input.Path, cfg, t)
	}
	if cs.Input.Dataset != "" {
		g, err := cs.Input.Load()
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		run = func(cfg core.Config, t mpi.Transport) (*core.RankArtifact, error) {
			return core.RunRank(g, cfg, t)
		}
	}

	// Rank-scoped journal: sized for the world (instrumentation indexes
	// by global rank) but allocating only this rank's row, anchored to
	// the launcher's epoch so stamps from every process are comparable.
	cfg := cs.config()
	if cs.Observe {
		cfg.Journal = obs.NewRankJournal(rank, cs.P, cs.Epoch)
	}

	tr, err := mpi.DialProc(mpi.ProcConfig{
		Rank: rank, Size: cs.P,
		Listener: ln, Addrs: cs.Addrs, Network: "tcp",
		Epoch:   cs.Epoch,
		Version: obs.ReadBuild().String(),
	}, mpi.WithConnectTimeout(cs.ConnectTimeout))
	if err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}

	art, err := run(cfg, tr)
	if err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}
	if cs.Observe {
		art.Telemetry = obs.CaptureTelemetry(cfg.Journal, rank)
	}
	art.PeakRSSBytes = peakRSS()

	if err := writeFile(artifact, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(art)
	}); err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}
	return nil
}

// peakRSS returns this process's peak resident set size in bytes, 0 if
// the kernel does not report it.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // KiB on Linux
}

// writeFile creates path and writes fn's output into it, reporting the
// first of fn's and Close's errors. The caller encodes JSON, which
// reaches the file as one Write.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
