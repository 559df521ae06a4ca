// Command dinfomap-diff compares two directories of experiment/run JSON
// artifacts (e.g. a freshly regenerated results tree against the
// committed goldens) and fails on numeric regressions:
//
//	dinfomap-diff [flags] baseline/ candidate/
//
// Only files present in both directories are compared, so a partial
// regeneration diffs cleanly against the full golden set. Host
// wall-clock fields are ignored; codelength fields fail on any
// increase and NMI fields on any decrease, modeled-time and per-kind
// byte fields fail beyond +10%; everything else is informational.
//
// Exit status: 0 clean, 1 regressions found, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dinfomap/internal/obs"
	"dinfomap/internal/regress"
)

func main() {
	var (
		reportPath = flag.String("report", "", "write the JSON diff report to this file")
		verbose    = flag.Bool("v", false, "print informational findings, not just regressions")
		parity     = flag.Bool("parity", false,
			"compare two run-report FILES for cross-transport parity: deterministic fields bit-exact, host wall/wait times ignored")
		version = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dinfomap-diff [flags] <baseline-dir> <candidate-dir>\n"+
				"       dinfomap-diff -parity <report-a.json> <report-b.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuild().String())
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *parity {
		os.Exit(runParity(flag.Arg(0), flag.Arg(1)))
	}

	rep, err := regress.Diff(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinfomap-diff:", err)
		os.Exit(2)
	}

	if *reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dinfomap-diff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dinfomap-diff:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("compared %d files, %d numeric leaves: %d findings, %d regressions\n",
		len(rep.Files), rep.Compared, len(rep.Findings), rep.Regressions)
	for _, f := range rep.OnlyBaseline {
		fmt.Printf("  only in baseline:  %s\n", f)
	}
	for _, f := range rep.OnlyCandidate {
		fmt.Printf("  only in candidate: %s\n", f)
	}
	for _, f := range rep.Findings {
		if f.Regression || *verbose {
			fmt.Println(f)
		}
	}
	if rep.Failed() {
		fmt.Println("FAIL: regressions beyond thresholds")
		os.Exit(1)
	}
	fmt.Println("ok")
}
