// Command experiments regenerates the paper's tables and figures on
// the synthetic stand-in datasets.
//
// Usage:
//
//	experiments -exp all [-scale 0.3] [-seed 1]
//	experiments -exp fig9 -datasets uk-2005,friendster -ps 4,8,16
//	experiments -exp ablations
//	experiments -exp all -scale 0.3 -json results
//
// Experiments: table1 fig4 fig5 table2 fig6 fig7 fig8 fig9 fig10
// table3 ablations comms waitstates all, plus the measured-wall
// experiment speedup (one OS process per rank; excluded from "all"
// because its numbers depend on the host's real clock, not the
// deterministic cost model). Output is the same rows/series the paper reports, as
// fixed-width text tables; with -json DIR each experiment
// additionally writes a machine-readable sibling DIR/<id>.json so
// trajectory tooling can consume the numbers without parsing the text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dinfomap/internal/experiments"
	"dinfomap/internal/launch"
)

// envelope wraps one experiment's structured rows for the JSON sibling
// files. Rows is the same data the Format* functions render as text.
type envelope struct {
	Schema     string  `json:"schema"`
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Rows       any     `json:"rows"`
}

// envelopeSchema tags the experiment JSON siblings; see obs.ReportSchema
// for the run-report counterpart.
const envelopeSchema = "dinfomap-experiment/v1"

func main() {
	launch.ServeChild()
	var (
		exp      = flag.String("exp", "all", "experiment id (table1 fig4 fig5 table2 fig6 fig7 fig8 fig9 fig10 table3 ablations comms waitstates speedup all)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		seed     = flag.Uint64("seed", 1, "random seed offset")
		datasets = flag.String("datasets", "", "comma-separated dataset override")
		psFlag   = flag.String("ps", "", "comma-separated processor counts override")
		p        = flag.Int("p", 0, "single processor count (fig4/fig5/table2/table3)")
		jsonDir  = flag.String("json", "", "also write machine-readable <dir>/<experiment>.json siblings")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof listener:", err)
			}
		}()
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
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	o := experiments.Options{Scale: *scale, Seed: *seed}
	ds := splitList(*datasets)
	ps, err := parseInts(*psFlag)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout

	// run executes one experiment, renders its text table, and returns
	// the structured rows for the JSON sibling (nil = nothing to save).
	run := func(id string) (any, error) {
		switch id {
		case "table1":
			rows, err := experiments.RunTable1(o)
			if err != nil {
				return nil, err
			}
			experiments.FormatTable1(w, rows)
			return rows, nil
		case "fig4":
			rs, err := experiments.RunFig4(o, defaultP(*p, 4), ds)
			if err != nil {
				return nil, err
			}
			experiments.FormatFig4(w, rs)
			return rs, nil
		case "fig5":
			rs, err := experiments.RunFig5(o, defaultP(*p, 4), ds)
			if err != nil {
				return nil, err
			}
			experiments.FormatFig5(w, rs)
			return rs, nil
		case "table2":
			rows, err := experiments.RunTable2(o, defaultP(*p, 4), ds)
			if err != nil {
				return nil, err
			}
			experiments.FormatTable2(w, rows)
			return rows, nil
		case "fig6", "fig7":
			rows, err := experiments.RunBalance(o, ds, ps)
			if err != nil {
				return nil, err
			}
			if id == "fig6" {
				experiments.FormatFig6(w, rows)
			} else {
				experiments.FormatFig7(w, rows)
			}
			return rows, nil
		case "fig8":
			dataset := "uk-2005"
			if len(ds) > 0 {
				dataset = ds[0]
			}
			bs, err := experiments.RunFig8(o, dataset, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatFig8(w, dataset, bs)
			return bs, nil
		case "fig9":
			rows, err := experiments.RunFig9(o, ds, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatFig9(w, rows)
			return rows, nil
		case "fig10":
			rows, err := experiments.RunFig10(o, ds, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatFig10(w, rows)
			return rows, nil
		case "table3":
			rows, err := experiments.RunTable3(o, ds, defaultP(*p, 16))
			if err != nil {
				return nil, err
			}
			experiments.FormatTable3(w, rows)
			return rows, nil
		case "ablations":
			return runAblations(o, w, defaultP(*p, 8))
		case "comms":
			rows, err := experiments.RunComms(o, ds, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatComms(w, rows)
			return rows, nil
		case "waitstates":
			rows, err := experiments.RunWaitStates(o, ds, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatWaitStates(w, rows)
			return rows, nil
		case "speedup":
			dataset := ""
			if len(ds) > 0 {
				dataset = ds[0]
			}
			res, err := experiments.RunSpeedup(o, dataset, ps)
			if err != nil {
				return nil, err
			}
			experiments.FormatSpeedup(w, res)
			return res, nil
		default:
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "fig4", "fig5", "table2", "fig6", "fig7",
			"fig8", "fig9", "fig10", "table3", "ablations", "comms", "waitstates"}
	}
	for _, id := range ids {
		rows, err := run(id)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *jsonDir != "" && rows != nil {
			env := envelope{
				Schema: envelopeSchema, Experiment: id,
				Scale: *scale, Seed: *seed, Rows: rows,
			}
			if err := writeJSONSibling(*jsonDir, id, env); err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
		}
	}

	if *memProfile != "" {
		runtime.GC()
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}
}

// writeJSONSibling writes payload to dir/id.json, creating dir if
// needed; flush/close errors are reported exactly once.
func writeJSONSibling(dir, id string, payload any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(payload)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// ablationResult is one ablation's structured rows in the JSON sibling.
type ablationResult struct {
	Title   string                    `json:"title"`
	Dataset string                    `json:"dataset"`
	Rows    []experiments.AblationRow `json:"rows"`
}

func runAblations(o experiments.Options, w *os.File, p int) (any, error) {
	type abl struct {
		title string
		fn    func(experiments.Options, string, int) ([]experiments.AblationRow, error)
		ds    string
	}
	var results []ablationResult
	for _, a := range []abl{
		{"Ablation: delegate threshold d_high (uk-2005)", experiments.RunAblationThreshold, "uk-2005"},
		{"Ablation: minimum-label anti-bouncing (dblp)", experiments.RunAblationMinLabel, "dblp"},
		{"Ablation: isSent Module_Info dedup (amazon)", experiments.RunAblationDedup, "amazon"},
		{"Ablation: partition rebalancing (uk-2005)", experiments.RunAblationRebalance, "uk-2005"},
		{"Ablation: exact vs local delta-L delegate moves (youtube)", experiments.RunAblationApproxDelegates, "youtube"},
		{"Ablation: cross-boundary move damping (ndweb)", experiments.RunAblationDamping, "ndweb"},
	} {
		rows, err := a.fn(o, a.ds, p)
		if err != nil {
			return nil, err
		}
		experiments.FormatAblation(w, a.title, rows)
		results = append(results, ablationResult{Title: a.title, Dataset: a.ds, Rows: rows})
	}
	return results, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func defaultP(p, def int) int {
	if p > 0 {
		return p
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
