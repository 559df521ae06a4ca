// Multi-process fault injection: real OS processes, a real SIGKILL.
// The conformance suite exercises the proc transport's failure paths
// in-process (where -race can see them); this test is the end-to-end
// check that an actual rank process dying mid-sweep poisons the
// survivors cleanly — every survivor unwinds with the lost peer named
// in its error, promptly, not via the deadlock watchdog.
package mpi

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	helperEnv     = "DINFOMAP_MPI_HELPER"
	helperRankEnv = "DINFOMAP_MPI_RANK"
	helperSizeEnv = "DINFOMAP_MPI_SIZE"
	helperDirEnv  = "DINFOMAP_MPI_DIR"
	// helperOpsEnv, when set, switches the helper to the latency
	// benchmark's body: that many gap-then-allreduce rounds.
	helperOpsEnv = "DINFOMAP_MPI_OPS"
)

// TestMain reroutes re-executions of the test binary into the helper
// rank program before the test framework parses anything.
func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		helperRankMain()
		return
	}
	os.Exit(m.Run())
}

// helperCommand returns the command that runs the test binary as rank
// rank of a size-rank helper world meshed over unix sockets in dir.
func helperCommand(exe string, rank, size int, dir string, extraEnv ...string) *exec.Cmd {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		fmt.Sprintf("%s=%d", helperRankEnv, rank),
		fmt.Sprintf("%s=%d", helperSizeEnv, size),
		helperDirEnv+"="+dir,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

// helperRankMain is one rank of a helper world: bind this rank's
// socket, dial the mesh, then run the body. The fault-injection body
// sweeps collectives until poisoned; ranks print marker lines the
// parent test parses, and a clean poison is the expected outcome and
// exits 0. With helperOpsEnv set, the body is the latency benchmark's
// (see BenchmarkProcAllreduceAfterGap).
func helperRankMain() {
	rank, _ := strconv.Atoi(os.Getenv(helperRankEnv))
	size, _ := strconv.Atoi(os.Getenv(helperSizeEnv))
	dir := os.Getenv(helperDirEnv)
	addrs := make([]string, size)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	// Each rank binds its own listener; DialProc's retry loop absorbs
	// peers whose listeners come up later.
	ln, err := net.Listen("unix", addrs[rank])
	if err != nil {
		fmt.Println("HELPER-SETUP-ERR:", err)
		os.Exit(3)
	}
	tr, err := DialProc(ProcConfig{
		Rank: rank, Size: size,
		Listener: ln, Addrs: addrs, Network: "unix",
		Epoch: time.Now(),
	}, WithConnectTimeout(10*time.Second), WithTimeout(20*time.Second))
	if err != nil {
		fmt.Println("HELPER-SETUP-ERR:", err)
		os.Exit(3)
	}
	if ops, err := strconv.Atoi(os.Getenv(helperOpsEnv)); err == nil {
		if _, err := RunRank(tr, nil, func(c *Comm) { allreduceAfterGap(c, ops) }); err != nil {
			fmt.Println("HELPER-ERR:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	body := func(c *Comm) {
		for i := 0; ; i++ {
			c.AllreduceI64(int64(c.Rank()*i), OpSum)
			if i == 10 {
				// Round 10 completing means every rank contributed to
				// it: the whole world is provably mid-sweep. The parent
				// kills the victim on this marker.
				fmt.Println("HELPER-MIDSWEEP")
			}
			time.Sleep(time.Millisecond)
		}
	}
	_, err = RunRank(tr, nil, body)
	if err != nil {
		fmt.Println("HELPER-POISONED:", err)
		os.Exit(0)
	}
	// The sweep loop is infinite; finishing it means the test premise
	// broke.
	fmt.Println("HELPER-DONE")
	os.Exit(3)
}

// lockedBuffer is a bytes.Buffer safe for the exec stderr copier and
// the marker-scanner goroutine to share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) contains(s string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Contains(b.buf.Bytes(), []byte(s))
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProcRankProcessKilledMidSweep SIGKILLs one rank process while
// the world sweeps collectives and requires every survivor to unwind
// promptly with a poison error naming the lost peer — connection-loss
// detection, not the 20s deadlock watchdog.
func TestProcRankProcessKilledMidSweep(t *testing.T) {
	const size, victim = 4, 2
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := shortTempDir(t)

	cmds := make([]*exec.Cmd, size)
	outs := make([]*lockedBuffer, size)
	midsweep := make(chan struct{})
	for r := 0; r < size; r++ {
		cmd := helperCommand(exe, r, size, dir)
		buf := &lockedBuffer{}
		if r == victim {
			// Watch the victim's stdout for the mid-sweep marker.
			pr, pw, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stdout = pw
			go func() {
				b := make([]byte, 4096)
				for {
					n, err := pr.Read(b)
					//dinfomap:close-ok marker scan only; short writes cannot happen on a bytes buffer
					buf.Write(b[:n])
					if buf.contains("HELPER-MIDSWEEP") {
						close(midsweep)
						break
					}
					if err != nil {
						break
					}
				}
				//dinfomap:close-ok drained marker pipe; victim is about to be killed anyway
				pr.Close()
			}()
			t.Cleanup(func() {
				//dinfomap:close-ok parent's write end; the child held its own dup
				pw.Close()
			})
		} else {
			cmd.Stdout = buf
		}
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting rank %d: %v", r, err)
		}
		cmds[r] = cmd
		outs[r] = buf
		t.Cleanup(func() {
			//dinfomap:close-ok teardown backstop; normally already reaped by Wait
			cmd.Process.Kill()
			//dinfomap:close-ok reaping the backstop kill
			cmd.Wait()
		})
	}

	select {
	case <-midsweep:
	case <-time.After(30 * time.Second):
		t.Fatalf("world never reached mid-sweep; victim output:\n%s", outs[victim])
	}
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatalf("killing victim: %v", err)
	}
	//dinfomap:close-ok reaping the deliberately killed victim; its exit error is the point
	cmds[victim].Wait()

	// Every survivor must exit cleanly (code 0 = poison recognized) and
	// name the lost peer. The 15s bound proves connection-loss poison:
	// the deadlock watchdog would need the full 20s rank timeout.
	killedAt := time.Now()
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(cmds[r])
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("rank %d exited uncleanly: %v\noutput:\n%s", r, err, outs[r])
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("rank %d still running %v after the kill; poison did not propagate\noutput:\n%s",
				r, time.Since(killedAt), outs[r])
		}
		out := outs[r].String()
		if !strings.Contains(out, "HELPER-POISONED:") {
			t.Errorf("rank %d did not report a poisoned world:\n%s", r, out)
		}
		want := fmt.Sprintf("connection to rank %d lost", victim)
		if !strings.Contains(out, want) {
			t.Errorf("rank %d error does not name the lost peer (want %q):\n%s", r, want, out)
		}
	}
}
