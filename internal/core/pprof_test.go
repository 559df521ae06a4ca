package core

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"dinfomap/internal/mpi"
)

// profilingTransport is a proc transport whose first completed
// collective, on whichever rank gets there first, snapshots the
// goroutine profile. Every rank has then contributed to the collective,
// so every rank is inside its body, and none can finish before this one
// goes on.
type profilingTransport struct {
	*mpi.ProcTransport
	once    *sync.Once
	profile *bytes.Buffer
}

func (t profilingTransport) ScatterSlots(bufs [][]byte) [][]byte {
	views := t.ProcTransport.ScatterSlots(bufs)
	t.once.Do(func() {
		if err := pprof.Lookup("goroutine").WriteTo(t.profile, 1); err != nil {
			fmt.Fprintf(t.profile, "goroutine profile: %v", err)
		}
	})
	return views
}

// TestRankBodiesCarryPprofLabels verifies the per-rank profiler labels:
// every rank's goroutine must run with a rank=<id> pprof label, which
// is what lets `go tool pprof -tagfocus rank=N` split a CPU profile per
// rank. The ranks run over proc transports in this process; a goroutine
// profile taken while they are provably mid-run (debug=1 prints labels)
// must show every rank id.
func TestRankBodiesCarryPprofLabels(t *testing.T) {
	const p = 4
	g, _ := planted(7, 2000, 8, 0.2)
	dir, err := os.MkdirTemp("", "pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	lns, addrs, err := mpi.ListenRanks("unix", p, dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	var once sync.Once
	var profile bytes.Buffer
	arts := make([]*RankArtifact, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := mpi.DialProc(mpi.ProcConfig{
				Rank: r, Size: p, Listener: lns[r], Addrs: addrs, Network: "unix", Epoch: epoch,
			})
			if err != nil {
				errs[r] = err
				return
			}
			arts[r], errs[r] = RunRank(g, Config{P: p, Seed: 3}, profilingTransport{tr, &once, &profile})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	res, err := Assemble(Config{P: p, Seed: 3}, arts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules < 1 {
		t.Fatalf("degenerate run: %d modules", res.NumModules)
	}

	for r := 0; r < p; r++ {
		want := fmt.Sprintf("%q:%q", "rank", fmt.Sprint(r))
		if !bytes.Contains(profile.Bytes(), []byte(want)) {
			t.Errorf("goroutine profile missing label %s\nprofile:\n%s", want, profile.String())
		}
	}
}
