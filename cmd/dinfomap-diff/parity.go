package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"dinfomap/internal/obs"
)

// runParity compares two run reports for cross-transport parity: every
// deterministic field — quality, convergence traces, partition layout,
// traffic counters, modeled times, barrier sync counts — must match
// bit for bit, while measured host wall/wait times (nondeterministic
// by nature, and different between goroutine scheduling and OS
// processes) are ignored, along with the journal-only analysis
// sections that exist only for in-process runs. Returns an exit code.
func runParity(pathA, pathB string) int {
	a, err := loadNormalized(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-diff:", err)
		return 2
	}
	b, err := loadNormalized(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-diff:", err)
		return 2
	}
	if bytes.Equal(a, b) {
		fmt.Println("parity ok: reports agree on every deterministic field")
		return 0
	}
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	shown := 0
	for i := 0; i < len(la) && i < len(lb) && shown < 10; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			fmt.Printf("line %d differs:\n  %s: %s\n  %s: %s\n",
				i+1, pathA, la[i], pathB, lb[i])
			shown++
		}
	}
	if shown == 0 {
		fmt.Printf("reports differ in length: %d vs %d lines\n", len(la), len(lb))
	}
	fmt.Println("FAIL: transports disagree on deterministic fields")
	return 1
}

// loadNormalized parses a run report and renders it with every
// nondeterministic field scrubbed, so two normalized reports are
// byte-comparable.
func loadNormalized(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	obs.ScrubVolatile(rep)
	return json.MarshalIndent(rep, "", "  ")
}
