package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dinfomap"
)

// runTimeout bounds one timed process run; a run that exceeds it is
// killed with its whole process group and counted as failed.
const runTimeout = 60 * time.Second

// binaries are the two programs under test, built from source.
type binaries struct{ dist, seq string }

// findRepo walks up from dir to the root of the dinfomap module, whose
// commands the benchmark builds.
func findRepo(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			if first, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(first) == "module dinfomap" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing dinfomap module (go.mod with \"module dinfomap\")")
		}
		dir = parent
	}
}

// buildBinaries compiles cmd/dinfomap and cmd/seqinfomap of repo into
// dir.
func buildBinaries(ctx context.Context, repo, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/dinfomap", "./cmd/seqinfomap")
	cmd.Dir = repo
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("building the programs under test: %w", err)
	}
	return binaries{dist: filepath.Join(dir, "dinfomap"), seq: filepath.Join(dir, "seqinfomap")}, nil
}

// procRun is one finished process: wall from exec to exit, and the
// rusage wait4 returned for it (Linux folds in its reaped children, so
// a -transport=proc launcher's rank processes count).
type procRun struct {
	wall, cpu, rssMB float64
	stdout           string
}

// runnerEnv marks a re-executed copy of this binary as the runner of
// one timed command; see runnerMain.
const runnerEnv = "DINFOMAP_BENCH_RUNNER"

// runnerReport is what a runner prints about the command it timed.
type runnerReport struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSKB int64   `json:"maxrss_kb"`
	Stdout   string  `json:"stdout"`
	Stderr   string  `json:"stderr"`
	Err      string  `json:"err,omitempty"`
}

// runnerMain times the command os.Args[1:] and prints a runnerReport.
// Timing from a fresh process keeps peak_rss_mb honest: Linux starts a
// vfork-spawned child's peak RSS at its parent's peak, and the harness
// has held whole graphs; a runner's own peak is a few MB.
func runnerMain() int {
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	rep := runnerReport{WallS: time.Since(start).Seconds(), Stdout: stdout.String(), Stderr: stderr.String()}
	if err != nil {
		rep.Err = err.Error()
	}
	if ps := cmd.ProcessState; ps != nil {
		rep.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rep.MaxRSSKB = ru.Maxrss // KiB on Linux
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// runProcess times name through a runner in its own process group, with
// TMPDIR pointed at tmp, and returns once the group is gone: on timeout
// the whole group is killed, rank processes included.
func runProcess(ctx context.Context, tmp, name string, args ...string) (procRun, error) {
	self, err := os.Executable()
	if err != nil {
		return procRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{name}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp, runnerEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = time.Second

	err = cmd.Run()
	if cmd.Process != nil {
		awaitGroupExit(cmd.Process.Pid)
	}
	if err != nil {
		return procRun{}, fmt.Errorf("%s: runner: %w: %s", filepath.Base(name), err, lastLine(stderr.String()))
	}
	var rep runnerReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return procRun{}, fmt.Errorf("%s: runner report: %w", filepath.Base(name), err)
	}
	if rep.Err != "" {
		return procRun{}, fmt.Errorf("%s: %s: %s", filepath.Base(name), rep.Err, lastLine(rep.Stderr))
	}
	return procRun{wall: rep.WallS, cpu: rep.CPUS, rssMB: float64(rep.MaxRSSKB) / 1024, stdout: rep.Stdout}, nil
}

// awaitGroupExit polls until no process of group pgid is left, for at
// most a few seconds; killed rank processes are reaped by init.
func awaitGroupExit(pgid int) {
	for i := 0; i < 500; i++ {
		if err := syscall.Kill(-pgid, 0); errors.Is(err, syscall.ESRCH) {
			return
		}
		if i == 0 {
			// Leftover rank processes of a failed launcher; ESRCH is fine.
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// timedRun runs one binary on the workload's file and checks its output:
// the printed graph size matches the file, the partition file has one
// line per vertex, and the map-equation codelength recomputed from the
// partition matches the printed one to every printed digit. It returns
// the process measurements and the recomputed codelength.
func timedRun(ctx context.Context, w workload, in graphFile, bins binaries, dir string, distributed bool) (procRun, float64, error) {
	part := filepath.Join(dir, "seq-part.txt")
	bin, args := bins.seq, []string{"-seed", strconv.Itoa(algoSeed)}
	if distributed {
		part = filepath.Join(dir, "part.txt")
		bin, args = bins.dist, []string{"-p", strconv.Itoa(w.p), "-transport=" + w.transport(),
			"-seed", strconv.Itoa(algoSeed), "-q"}
	}
	args = append(args, "-out", part, in.path)
	if err := os.Remove(part); err != nil && !errors.Is(err, os.ErrNotExist) {
		return procRun{}, 0, err
	}
	r, err := runProcess(ctx, filepath.Join(dir, "tmp"), bin, args...)
	if err != nil {
		return r, 0, err
	}
	L, err := checkOutput(r.stdout, part, in.graph)
	if err != nil {
		return r, 0, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	return r, L, nil
}

func checkOutput(stdout, part string, g *dinfomap.Graph) (float64, error) {
	var n, m int
	if _, err := fmt.Sscanf(field(stdout, "graph:"), "%d vertices, %d edges", &n, &m); err != nil {
		return 0, fmt.Errorf("no graph size in output: %w", err)
	}
	if n != g.NumVertices() || m != g.NumEdges() {
		return 0, fmt.Errorf("read %d vertices, %d edges; the file has %d, %d", n, m, g.NumVertices(), g.NumEdges())
	}
	printed, _, _ := strings.Cut(field(stdout, "codelength:"), " ")
	want, err := strconv.ParseFloat(printed, 64)
	if err != nil {
		return 0, fmt.Errorf("no codelength in output: %w", err)
	}
	comm, err := readPartition(part, n)
	if err != nil {
		return 0, err
	}
	L := dinfomap.CodelengthOf(g, comm)
	decimals := 0
	if _, frac, ok := strings.Cut(printed, "."); ok {
		decimals = len(frac)
	}
	if tol := 0.5*math.Pow10(-decimals) + 1e-9*math.Abs(want); math.Abs(L-want) > tol {
		return 0, fmt.Errorf("partition codelength %.12f, printed %s", L, printed)
	}
	return L, nil
}

// field returns the rest of the first output line starting with key.
func field(out, key string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// readPartition parses "vertex community" lines and demands exactly one
// line per vertex, in vertex order.
func readPartition(path string, n int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//dinfomap:close-ok read-only file; close errors cannot lose data
	defer f.Close()
	comm := make([]int, 0, n)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		us, cs, _ := strings.Cut(sc.Text(), " ")
		u, uerr := strconv.Atoi(us)
		c, cerr := strconv.Atoi(cs)
		if uerr != nil || cerr != nil || u != len(comm) || c < 0 {
			return nil, fmt.Errorf("%s line %d: %q", path, len(comm)+1, sc.Text())
		}
		comm = append(comm, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(comm) != n {
		return nil, fmt.Errorf("%s has %d lines for %d vertices", path, len(comm), n)
	}
	return comm, nil
}

// timedResult holds the samples of the interleaved timed pairs.
type timedResult struct {
	samples map[string][]float64
	// graph0Wall holds wall_s of the pairs on graph 0, the traced
	// pass's graph, for residual_s.
	graph0Wall []float64
	// distL and seqL hold each graph's partition codelength per binary;
	// NaN until a run on that graph succeeds.
	distL, seqL       []float64
	attempted, failed int
	failures          []string
}

// runPairs times dinfomap against seqinfomap in interleaved pairs, the
// sequential run first on odd pairs and the distributed run first on
// even ones; pair k runs on graph (k-1) mod len(files). With budget > 0
// it starts another pair only while the previous pair would still fit
// in the budget (at least one pair runs); otherwise it runs reps pairs.
// Sync mode is deterministic, so every run of one binary on one graph
// must write a partition of the same codelength.
func runPairs(ctx context.Context, w workload, files []graphFile, bins binaries, dir string, reps int, budget time.Duration) *timedResult {
	res := &timedResult{samples: make(map[string][]float64)}
	for range files {
		res.distL = append(res.distL, math.NaN())
		res.seqL = append(res.seqL, math.NaN())
	}
	start := time.Now()
	for pair := 1; ; pair++ {
		pairStart := time.Now()
		gi := (pair - 1) % len(files)
		var dist, seq procRun
		var distErr, seqErr error
		order := []bool{false, true}
		if pair%2 == 0 {
			order = []bool{true, false}
		}
		for _, distributed := range order {
			r, L, err := timedRun(ctx, w, files[gi], bins, dir, distributed)
			res.attempted++
			known := res.seqL
			if distributed {
				known = res.distL
			}
			if err == nil && math.IsNaN(known[gi]) {
				known[gi] = L
			} else if err == nil && math.Abs(L-known[gi]) > 1e-9*math.Abs(L) {
				err = fmt.Errorf("graph %d: codelength %.12f, an earlier run wrote %.12f", gi, L, known[gi])
			}
			if err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("pair %d: %v", pair, err))
			}
			if distributed {
				dist, distErr = r, err
			} else {
				seq, seqErr = r, err
			}
		}
		if distErr == nil {
			res.add("wall_s", dist.wall)
			res.add("cpu_s", dist.cpu)
			res.add("peak_rss_mb", dist.rssMB)
			if gi == 0 {
				res.graph0Wall = append(res.graph0Wall, dist.wall)
			}
		}
		if seqErr == nil {
			res.add("seq_wall_s", seq.wall)
		}
		if distErr == nil && seqErr == nil {
			res.add("cost_ratio", dist.wall/seq.wall)
		}
		if ctx.Err() != nil {
			break
		}
		if budget > 0 {
			if time.Since(start)+time.Since(pairStart) > budget {
				break
			}
		} else if pair >= reps {
			break
		}
	}
	for gi, L := range res.distL {
		if !math.IsNaN(L) && !math.IsNaN(res.seqL[gi]) {
			res.add("codelength_ratio", L/res.seqL[gi])
		}
	}
	return res
}

func (r *timedResult) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
