// Multi-process launcher: -transport=proc runs each rank as its own OS
// process over TCP loopback. The parent binds one listener per rank,
// re-executes itself once per rank in child mode (hidden -mpi-* flags,
// the rank's listener passed as fd 3), and assembles the children's
// artifact files into the same DistributedResult the in-process run
// produces — bit-identical for the same graph, config, and seed,
// because every child loads the graph, recomputes the partitioning
// deterministically and runs the identical rank program.
//
// The parent does not hold the graph. It only checks that the input
// exists before spawning, takes the graph's size from rank 0's
// artifact, and loads the graph itself after the children exit, and
// only when -top, -metrics or -dot needs it.
//
// When the run is observed (-trace, -pprof, or -metrics), the parent
// additionally binds a telemetry uplink listener and each child streams
// its journal events, periodic comm-stats snapshots, and a final
// lossless telemetry section back over a dedicated side channel. The
// parent estimates each child's clock offset from ping/pong samples,
// feeds the live flow into its own journal (so the -pprof debug surface
// is mesh-wide), and merges the final sections into one aligned journal
// and wait recorder — the inputs of the merged Chrome trace and the
// report's wait-state and critical-path sections.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dinfomap"
)

// procLaunch carries the parent's flag values that the children must
// reproduce exactly: anything that shapes the graph or the algorithm.
type procLaunch struct {
	p, dHigh       int
	seed           uint64
	dataset        string
	scale          float64
	graphPath      string
	tracePath      string
	connectTimeout time.Duration
	// epoch is the shared wall-clock zero point of the whole run: the
	// mesh's stamps, every child journal, and the parent journal all
	// anchor to it, so cross-process offsets are small residuals.
	epoch time.Time
}

// childConfig is the child-mode half: mesh coordinates from the hidden
// -mpi-* flags plus the replicated algorithm flags.
type childConfig struct {
	rank         int
	addrs        []string
	network      string
	epochNano    int64
	artifactPath string
	uplink       string // parent's telemetry listener address; "" = no telemetry
	launch       procLaunch
}

// meshTelemetry is what the telemetry uplink recovers from a finished
// multi-process run: the merged clock-aligned journal and wait
// recorder, plus the per-rank clock estimates behind the alignment.
type meshTelemetry struct {
	journal  *dinfomap.RunJournal
	recorder *dinfomap.WaitRecorder
	clocks   []dinfomap.ClockEstimate
}

// launchProcRanks runs the algorithm with one OS process per rank and
// returns the assembled result. journal, when non-nil, is the parent's
// live journal: a telemetry uplink is offered to every child, live
// events land in the journal as they stream in (clock-aligned with the
// running estimate), lm receives transport counters, and the returned
// meshTelemetry carries the merged post-run view. With a nil journal
// the children run unobserved, exactly as before.
func launchProcRanks(l procLaunch, journal *dinfomap.RunJournal, lm *dinfomap.RunLiveMetrics) (*dinfomap.DistributedResult, *meshTelemetry, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary: %w", err)
	}
	listeners, addrs, err := dinfomap.ListenRanks("tcp", l.p, "")
	if err != nil {
		return nil, nil, err
	}
	defer closeListeners(listeners)

	artDir, err := os.MkdirTemp("", "dinfomap-proc")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(artDir)

	// One wall-clock epoch shared by the mesh: sentAt stamps and trace
	// times from different processes stay comparable.
	epoch := l.epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}

	// Telemetry uplink: bind the side-channel listener and collect every
	// child's stream. The journal finishes when this function returns,
	// whatever the outcome, so SSE subscribers always get a terminal
	// status frame even when a rank dies.
	var coll *dinfomap.MeshCollector
	var upAddr string
	var upLn net.Listener
	var upWG sync.WaitGroup
	if journal != nil {
		defer journal.Finish()
		upLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("telemetry uplink listener: %w", err)
		}
		upAddr = upLn.Addr().String()
		coll = dinfomap.NewMeshCollector(l.p, journal, lm)
		version := dinfomap.ReadBuildProvenance().String()
		connectTimeout := l.connectTimeout
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
					peer, err := dinfomap.AcceptTelemetryUplink(conn, l.p, epoch, version, connectTimeout)
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
	defer func() {
		if upLn != nil {
			//dinfomap:close-ok run is over; children already said bye or died
			upLn.Close()
			upWG.Wait()
			upLn = nil
		}
	}()

	cmds := make([]*exec.Cmd, l.p)
	artPaths := make([]string, l.p)
	for r := 0; r < l.p; r++ {
		artPaths[r] = filepath.Join(artDir, fmt.Sprintf("rank%d.json", r))
		args := []string{
			"-mpi-child",
			"-mpi-rank", strconv.Itoa(r),
			"-mpi-addrs", strings.Join(addrs, ","),
			"-mpi-net", "tcp",
			"-mpi-epoch", strconv.FormatInt(epoch.UnixNano(), 10),
			"-mpi-artifact", artPaths[r],
			"-p", strconv.Itoa(l.p),
			"-dhigh", strconv.Itoa(l.dHigh),
			"-seed", strconv.FormatUint(l.seed, 10),
			"-connect-timeout", l.connectTimeout.String(),
		}
		if upAddr != "" {
			args = append(args, "-mpi-uplink", upAddr)
		}
		if l.dataset != "" {
			args = append(args, "-dataset", l.dataset,
				"-scale", strconv.FormatFloat(l.scale, 'g', -1, 64))
		}
		if l.tracePath != "" {
			args = append(args, "-trace", l.tracePath)
		}
		if l.graphPath != "" {
			args = append(args, l.graphPath)
		}

		f, err := listenerFile(listeners[r])
		if err != nil {
			killStarted(cmds)
			return nil, nil, err
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr // children print diagnostics only
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{f} // becomes fd 3 in the child
		err = cmd.Start()
		//dinfomap:close-ok parent's dup of the listener fd; the child holds its own
		f.Close()
		if err != nil {
			killStarted(cmds)
			return nil, nil, fmt.Errorf("spawning rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	// The children hold dup'd listener fds; the parent's copies can go
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
	// parent journal still finishes with whatever telemetry arrived).
	if upLn != nil {
		//dinfomap:close-ok run is over; children already said bye or died
		upLn.Close()
		upWG.Wait()
		upLn = nil
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}

	arts := make([]*dinfomap.RankArtifact, l.p)
	for r, path := range artPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("rank %d artifact: %w", r, err)
		}
		a := &dinfomap.RankArtifact{}
		if err := json.Unmarshal(data, a); err != nil {
			return nil, nil, fmt.Errorf("rank %d artifact: %w", r, err)
		}
		arts[r] = a
	}
	cfg := dinfomap.DistributedConfig{
		P: l.p, DHigh: l.dHigh, Seed: l.seed,
	}
	res, err := dinfomap.AssembleDistributed(cfg, arts)
	if err != nil {
		return nil, nil, err
	}

	var mesh *meshTelemetry
	if coll != nil {
		merged, rec := coll.Merge(epoch)
		mesh = &meshTelemetry{journal: merged, recorder: rec, clocks: coll.Clocks()}
		res.WaitRecorder = rec
		res.Clocks = mesh.clocks
	}
	return res, mesh, nil
}

// runChildRank is the child-mode entry point: dial the mesh (and the
// telemetry uplink when the parent offers one), run this rank, write
// the artifact file (and, when tracing, this rank's timeline). Any
// error — including a poisoned world — exits non-zero through the
// caller, which is how rank failure reaches the parent. The telemetry
// flush runs on failure paths too: the journal finishes (terminal
// status frame for any subscriber) and the final section ships with
// whatever the rank recorded before dying.
func runChildRank(cc childConfig) error {
	lf := os.NewFile(3, "mpi-listener")
	if lf == nil {
		return fmt.Errorf("rank %d: missing inherited listener (fd 3)", cc.rank)
	}
	ln, err := net.FileListener(lf)
	//dinfomap:close-ok FileListener dups the fd; the original can go either way
	lf.Close()
	if err != nil {
		return fmt.Errorf("rank %d: inherited listener: %w", cc.rank, err)
	}

	l := cc.launch
	epoch := time.Unix(0, cc.epochNano)
	g, err := loadGraph(l.dataset, l.scale, l.graphPath)
	if err != nil {
		return fmt.Errorf("rank %d: %w", cc.rank, err)
	}

	// Rank-scoped journal: sized for the world (instrumentation indexes
	// by global rank) but allocating only this rank's row, anchored to
	// the launcher's epoch so stamps from every process are comparable.
	var journal *dinfomap.RunJournal
	var rec *dinfomap.WaitRecorder
	if l.tracePath != "" || cc.uplink != "" {
		journal = dinfomap.NewRankJournal(cc.rank, l.p, epoch)
		rec = dinfomap.NewWaitRecorder(l.p, epoch)
	}

	version := dinfomap.ReadBuildProvenance().String()
	tr, err := dinfomap.DialProcTransport(dinfomap.ProcTransportConfig{
		Rank: cc.rank, Size: l.p,
		Listener: ln, Addrs: cc.addrs, Network: cc.network,
		Epoch:   epoch,
		Version: version,
	}, dinfomap.WithConnectTimeout(l.connectTimeout))
	if err != nil {
		return fmt.Errorf("rank %d: %w", cc.rank, err)
	}

	// The uplink is an observer: failing to reach it degrades telemetry,
	// never the run.
	var up *dinfomap.TelemetryUplink
	var relay *dinfomap.TelemetryRelay
	if cc.uplink != "" {
		up, err = dinfomap.DialTelemetryUplink("tcp", cc.uplink, dinfomap.TelemetryUplinkConfig{
			Rank: cc.rank, Size: l.p, Epoch: epoch,
			Version: version, DialTimeout: l.connectTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dinfomap: rank %d: telemetry uplink: %v (continuing without)\n", cc.rank, err)
			up = nil
		} else {
			relay = dinfomap.StartTelemetryRelay(journal, cc.rank, up, tr.Telemetry, 0)
		}
	}

	cfg := dinfomap.DistributedConfig{
		P: l.p, DHigh: l.dHigh, Seed: l.seed,
		Journal: journal, Recorder: rec,
	}
	art, runErr := dinfomap.RunDistributedRank(g, cfg, tr)

	// Telemetry teardown, on success and failure alike. Finish ends the
	// live stream (the relay drains and sends its last snapshot), then
	// the lossless section ships blocking and the bye frame closes the
	// channel.
	journal.Finish()
	if up != nil {
		if relay != nil {
			relay.Wait()
		}
		tel := dinfomap.CaptureRankTelemetry(journal, cc.rank, rec, tr.Telemetry(), up.Drops())
		if err := dinfomap.SendRankTelemetry(up, tel); err != nil {
			fmt.Fprintf(os.Stderr, "dinfomap: rank %d: telemetry section: %v\n", cc.rank, err)
		}
		up.Close()
	}
	if runErr != nil {
		return fmt.Errorf("rank %d: %w", cc.rank, runErr)
	}

	if err := writeFile(cc.artifactPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(art)
	}); err != nil {
		return fmt.Errorf("rank %d: %w", cc.rank, err)
	}
	if journal != nil && l.tracePath != "" {
		path := fmt.Sprintf("%s.rank%d", l.tracePath, cc.rank)
		if err := writeFile(path, func(w io.Writer) error {
			return dinfomap.WriteChromeTrace(w, journal)
		}); err != nil {
			return fmt.Errorf("rank %d: %w", cc.rank, err)
		}
	}
	return nil
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
