// Package regress compares two directories of experiment/run JSON
// artifacts (the dinfomap-experiment/v1 files under results/ and
// dinfomap-run-report files) and flags numeric regressions beyond
// class-specific thresholds.
//
// The comparison is a generic walk over the JSON trees — no schema
// knowledge beyond path classification — so it keeps working as the
// report schema grows additive fields. Classification is by path:
//
//   - paths mentioning "wall" are host wall-clock times and are ignored
//     (they legitimately differ run to run);
//   - leaves whose final key mentions "codelength" fail on ANY relative
//     increase beyond a tiny tolerance (quality must never regress
//     silently — runs are deterministic given the seed);
//   - paths mentioning "modeled" are cost-model times and fail on
//     relative increase beyond the modeled threshold (default 10%);
//   - leaves whose final key mentions "bytes" (including the per-kind
//     comm splits) fail on relative increase beyond the bytes
//     threshold (default 10%);
//   - leaves whose final key mentions "ns_per_op" are benchmark times
//     (the dinfomap-bench/v1 reports) and fail on relative increase
//     beyond the generous time threshold (default 25%);
//   - leaves whose final key mentions "allocs_per_op" are benchmark
//     allocation counts and fail on ANY relative increase beyond the
//     allocs threshold (default 0: pooling regressions fail loudly);
//   - leaves whose final key mentions "nmi" are partition quality and
//     fail on ANY relative decrease beyond a tiny tolerance (NMI sums
//     in a fixed order, so same-seed runs reproduce it exactly);
//   - everything else that differs is recorded as an informational
//     finding, never a failure.
//
// Fields present on only one side are schema evolution (the report
// schema grows additively), reported as notes, never failures.
package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ReportSchema tags the diff report JSON.
const ReportSchema = "dinfomap-diff-report/v1"

// Default thresholds.
const (
	DefaultCodelengthTol = 1e-9
	DefaultModeledTol    = 0.10
	DefaultBytesTol      = 0.10
	DefaultTimeTol       = 0.25
	DefaultQualityTol    = 1e-9
)

// Options are the per-class regression thresholds, all relative
// ((new-old)/|old|). Zero values mean the defaults. AllocsTol defaults
// to 0: any allocs/op increase is a regression.
type Options struct {
	CodelengthTol float64 `json:"codelength_tol"`
	ModeledTol    float64 `json:"modeled_tol"`
	BytesTol      float64 `json:"bytes_tol"`
	TimeTol       float64 `json:"time_tol"`
	AllocsTol     float64 `json:"allocs_tol"`
	QualityTol    float64 `json:"quality_tol"`
}

func (o Options) withDefaults() Options {
	if o.CodelengthTol <= 0 {
		o.CodelengthTol = DefaultCodelengthTol
	}
	if o.ModeledTol <= 0 {
		o.ModeledTol = DefaultModeledTol
	}
	if o.BytesTol <= 0 {
		o.BytesTol = DefaultBytesTol
	}
	if o.TimeTol <= 0 {
		o.TimeTol = DefaultTimeTol
	}
	if o.QualityTol <= 0 {
		o.QualityTol = DefaultQualityTol
	}
	return o
}

// Classes a finding can belong to.
const (
	ClassCodelength = "codelength"
	ClassModeled    = "modeled"
	ClassBytes      = "bytes"
	ClassTime       = "time"
	ClassAllocs     = "allocs"
	ClassQuality    = "quality"
	ClassOther      = "other"
	ClassStructure  = "structure"
)

// Finding is one differing leaf (or structural mismatch) between the
// baseline and candidate trees.
type Finding struct {
	File  string `json:"file"`
	Path  string `json:"path"`
	Class string `json:"class"`
	// Old and New are the numeric values for numeric findings.
	Old float64 `json:"old,omitempty"`
	New float64 `json:"new,omitempty"`
	// Rel is (new-old)/|old|; omitted when the baseline is zero.
	Rel float64 `json:"rel,omitempty"`
	// Regression marks findings beyond their class threshold; only
	// these make the diff fail.
	Regression bool   `json:"regression,omitempty"`
	Note       string `json:"note,omitempty"`
}

func (f Finding) String() string {
	//dinfomap:float-ok zero is the exact "no numeric values" sentinel of structural findings
	if f.Note != "" && f.Old == 0 && f.New == 0 {
		return fmt.Sprintf("%s: %s: %s", f.File, f.Path, f.Note)
	}
	mark := "  "
	if f.Regression {
		mark = "!!"
	}
	return fmt.Sprintf("%s %s: %s [%s] %v -> %v (%+.2f%%)",
		mark, f.File, f.Path, f.Class, f.Old, f.New, 100*f.Rel)
}

// Report is the structured result of one directory diff.
type Report struct {
	Schema        string   `json:"schema"`
	BaselineDir   string   `json:"baseline_dir"`
	CandidateDir  string   `json:"candidate_dir"`
	Options       Options  `json:"options"`
	Files         []string `json:"files"`
	OnlyBaseline  []string `json:"only_baseline,omitempty"`
	OnlyCandidate []string `json:"only_candidate,omitempty"`
	// Compared counts numeric leaves present on both sides.
	Compared int `json:"compared"`
	// Findings lists every differing leaf, regressions first.
	Findings []Finding `json:"findings,omitempty"`
	// Regressions counts findings beyond their class threshold.
	Regressions int `json:"regressions"`
}

// Failed reports whether the diff found threshold-exceeding regressions.
func (r *Report) Failed() bool { return r.Regressions > 0 }

// Diff compares every JSON file present in both directories.
func Diff(baselineDir, candidateDir string, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	base, err := jsonFiles(baselineDir)
	if err != nil {
		return nil, err
	}
	cand, err := jsonFiles(candidateDir)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: ReportSchema, BaselineDir: baselineDir,
		CandidateDir: candidateDir, Options: opt,
	}
	for _, f := range base {
		if contains(cand, f) {
			rep.Files = append(rep.Files, f)
		} else {
			rep.OnlyBaseline = append(rep.OnlyBaseline, f)
		}
	}
	for _, f := range cand {
		if !contains(base, f) {
			rep.OnlyCandidate = append(rep.OnlyCandidate, f)
		}
	}
	for _, f := range rep.Files {
		bb, err := os.ReadFile(filepath.Join(baselineDir, f))
		if err != nil {
			return nil, err
		}
		cb, err := os.ReadFile(filepath.Join(candidateDir, f))
		if err != nil {
			return nil, err
		}
		findings, compared, err := DiffFiles(f, bb, cb, opt)
		if err != nil {
			return nil, err
		}
		rep.Findings = append(rep.Findings, findings...)
		rep.Compared += compared
	}
	// Regressions first, then by file/path, for readable output.
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Regression && !rep.Findings[j].Regression
	})
	for _, f := range rep.Findings {
		if f.Regression {
			rep.Regressions++
		}
	}
	return rep, nil
}

// DiffFiles compares two JSON documents and returns the findings plus
// the count of numeric leaves compared.
func DiffFiles(name string, baseline, candidate []byte, opt Options) ([]Finding, int, error) {
	opt = opt.withDefaults()
	var bv, cv any
	if err := unmarshalNumbers(baseline, &bv); err != nil {
		return nil, 0, fmt.Errorf("regress: baseline %s: %w", name, err)
	}
	if err := unmarshalNumbers(candidate, &cv); err != nil {
		return nil, 0, fmt.Errorf("regress: candidate %s: %w", name, err)
	}
	w := &walker{file: name, opt: opt}
	w.walk("$", bv, cv)
	return w.findings, w.compared, nil
}

func unmarshalNumbers(data []byte, v *any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	return dec.Decode(v)
}

type walker struct {
	file     string
	opt      Options
	findings []Finding
	compared int
}

func (w *walker) emit(f Finding) {
	f.File = w.file
	w.findings = append(w.findings, f)
}

func (w *walker) walk(path string, a, b any) {
	if ignoredPath(path) {
		return
	}
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			w.emit(Finding{Path: path, Class: ClassStructure, Note: "type mismatch"})
			return
		}
		keys := make([]string, 0, len(av)+len(bv))
		for k := range av {
			keys = append(keys, k)
		}
		for k := range bv {
			if _, dup := av[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub := path + "." + k
			x, inA := av[k]
			y, inB := bv[k]
			switch {
			case inA && inB:
				w.walk(sub, x, y)
			case inA:
				if !ignoredPath(sub) {
					w.emit(Finding{Path: sub, Class: ClassStructure, Note: "only in baseline"})
				}
			default:
				if !ignoredPath(sub) {
					w.emit(Finding{Path: sub, Class: ClassStructure, Note: "only in candidate"})
				}
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			w.emit(Finding{Path: path, Class: ClassStructure, Note: "type mismatch"})
			return
		}
		if len(av) != len(bv) {
			w.emit(Finding{Path: path, Class: ClassStructure,
				Note: fmt.Sprintf("length %d -> %d", len(av), len(bv))})
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i])
		}
	case json.Number:
		bn, ok := b.(json.Number)
		if !ok {
			w.emit(Finding{Path: path, Class: ClassStructure, Note: "type mismatch"})
			return
		}
		w.compared++
		if av.String() == bn.String() {
			return
		}
		x, errA := av.Float64()
		y, errB := bn.Float64()
		if errA != nil || errB != nil {
			w.emit(Finding{Path: path, Class: ClassStructure, Note: "unparseable number"})
			return
		}
		//dinfomap:float-ok both sides parsed from JSON text; equal floats mean equal leaves
		if x == y {
			return
		}
		w.number(path, x, y)
	default:
		// Strings, bools, nulls: any difference is informational.
		if !equalScalar(a, b) {
			w.emit(Finding{Path: path, Class: ClassOther,
				Note: fmt.Sprintf("value %v -> %v", a, b)})
		}
	}
}

func (w *walker) number(path string, old, new float64) {
	class := classify(path)
	f := Finding{Path: path, Class: class, Old: old, New: new}
	//dinfomap:float-ok exact zero guards the division; near-zero baselines are fine
	if old != 0 {
		f.Rel = (new - old) / abs(old)
	} else {
		f.Note = "baseline zero"
	}
	switch class {
	case ClassCodelength:
		f.Regression = increaseBeyond(old, new, w.opt.CodelengthTol)
	case ClassModeled:
		f.Regression = increaseBeyond(old, new, w.opt.ModeledTol)
	case ClassBytes:
		f.Regression = increaseBeyond(old, new, w.opt.BytesTol)
	case ClassTime:
		f.Regression = increaseBeyond(old, new, w.opt.TimeTol)
	case ClassAllocs:
		f.Regression = increaseBeyond(old, new, w.opt.AllocsTol)
	case ClassQuality:
		// Quality regresses downward: gate decreases, welcome increases.
		f.Regression = increaseBeyond(new, old, w.opt.QualityTol)
	}
	w.emit(f)
}

// increaseBeyond reports whether new exceeds old by more than the
// relative tolerance (a zero baseline treats any increase as beyond).
func increaseBeyond(old, new, tol float64) bool {
	if new <= old {
		return false
	}
	//dinfomap:float-ok exact zero guards the division; any increase from zero is beyond
	if old == 0 {
		return true
	}
	return (new-old)/abs(old) > tol
}

// ignoredPath drops host wall-clock leaves and their subtrees.
func ignoredPath(path string) bool {
	return strings.Contains(strings.ToLower(lastKey(path)), "wall")
}

// Field aliases used by the committed experiment goldens whose names
// don't contain the class substring: fig4/fig5 final codelengths
// (SeqFinal/DistFinal), table3 codelengths (OursL/BaselineL) and
// modeled times (Ours/Baseline), fig9 modeled stage totals
// (Stage1/Stage2/Total), and the fig8 per-phase modeled breakdown
// (Phases.*). Aliases match the exact final key, case-insensitively,
// so e.g. fig10's BaselineP stays unclassified.
var (
	codelengthKeys = map[string]bool{
		"seqfinal": true, "distfinal": true, "oursl": true, "baselinel": true,
	}
	modeledKeys = map[string]bool{
		"stage1": true, "stage2": true, "total": true, "ours": true, "baseline": true,
	}
)

// classify maps a JSON path to its regression class.
func classify(path string) string {
	lower := strings.ToLower(path)
	last := strings.ToLower(lastKey(path))
	switch {
	case strings.Contains(last, "codelength") || codelengthKeys[last]:
		return ClassCodelength
	case strings.Contains(lower, "modeled") ||
		strings.Contains(lower, ".phases.") || modeledKeys[last]:
		return ClassModeled
	case strings.Contains(last, "bytes"):
		return ClassBytes
	case strings.Contains(last, "ns_per_op"):
		return ClassTime
	case strings.Contains(last, "allocs_per_op"):
		return ClassAllocs
	case strings.Contains(last, "nmi"):
		return ClassQuality
	default:
		return ClassOther
	}
}

// lastKey extracts the final object key of a path, dropping array
// indices ("$.rows[2].phase_modeled_ns.Other[1]" -> "Other").
func lastKey(path string) string {
	for {
		i := strings.LastIndexByte(path, '[')
		if i < 0 || !strings.HasSuffix(path, "]") {
			break
		}
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func equalScalar(a, b any) bool {
	return fmt.Sprintf("%v", a) == fmt.Sprintf("%v", b)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func jsonFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
