package regress

import (
	"os"
	"path/filepath"
	"testing"
)

func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const baseExperiment = `{
  "schema": "dinfomap-experiment/v1",
  "experiment": "table1",
  "scale": 0.3,
  "seed": 1,
  "rows": [
    {"Dataset": "amazon", "Codelength": 11.52, "Modeled": 1200000, "Bytes": 400000, "SeqNMI": 0.91},
    {"Dataset": "dblp", "Codelength": 10.10, "Modeled": 900000, "Bytes": 300000, "SeqNMI": 0.88}
  ]
}`

func TestDiffIdenticalDirs(t *testing.T) {
	files := map[string]string{"table1.json": baseExperiment}
	a := writeDir(t, files)
	b := writeDir(t, files)
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.Regressions != 0 {
		t.Fatalf("identical dirs flagged as regression: %+v", rep.Findings)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("identical dirs produced findings: %+v", rep.Findings)
	}
	if rep.Compared == 0 {
		t.Fatal("no numeric leaves compared")
	}
}

func TestDiffCodelengthRegression(t *testing.T) {
	a := writeDir(t, map[string]string{"table1.json": baseExperiment})
	// Seeded regression: one codelength creeps up by ~0.3%.
	bad := `{
  "schema": "dinfomap-experiment/v1",
  "experiment": "table1",
  "scale": 0.3,
  "seed": 1,
  "rows": [
    {"Dataset": "amazon", "Codelength": 11.55, "Modeled": 1200000, "Bytes": 400000, "SeqNMI": 0.91},
    {"Dataset": "dblp", "Codelength": 10.10, "Modeled": 900000, "Bytes": 300000, "SeqNMI": 0.88}
  ]
}`
	b := writeDir(t, map[string]string{"table1.json": bad})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("codelength increase not flagged: %+v", rep.Findings)
	}
	if rep.Regressions != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", rep.Regressions, rep.Findings)
	}
	f := rep.Findings[0]
	if f.Class != ClassCodelength || !f.Regression {
		t.Fatalf("first finding not a codelength regression: %+v", f)
	}
	// Improvements must not fail: same diff in the other direction.
	rev, err := Diff(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Failed() {
		t.Fatalf("codelength improvement flagged as regression: %+v", rev.Findings)
	}
}

func TestDiffModeledThreshold(t *testing.T) {
	mk := func(modeled int) string {
		return `{"rows": [{"Codelength": 10.0, "Modeled": ` +
			itoa(modeled) + `, "Bytes": 1000}]}`
	}
	a := writeDir(t, map[string]string{"fig4.json": mk(1000000)})

	// +5% modeled: within the 10% threshold, reported but not failed.
	b := writeDir(t, map[string]string{"fig4.json": mk(1050000)})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("+5%% modeled flagged: %+v", rep.Findings)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Class != ClassModeled {
		t.Fatalf("want one informational modeled finding, got %+v", rep.Findings)
	}

	// +15% modeled: beyond the threshold.
	c := writeDir(t, map[string]string{"fig4.json": mk(1150000)})
	rep, err = Diff(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || rep.Findings[0].Class != ClassModeled {
		t.Fatalf("+15%% modeled not flagged: %+v", rep.Findings)
	}
}

func TestDiffBytesByKind(t *testing.T) {
	mk := func(ghost int) string {
		return `{"comms": {"totals": {"bytes_sent": 5000},
  "by_kind": {"ghost_update": {"bytes_sent": ` + itoa(ghost) + `, "msgs_sent": 40}}}}`
	}
	a := writeDir(t, map[string]string{"report.json": mk(1000)})
	b := writeDir(t, map[string]string{"report.json": mk(1300)})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("+30%% ghost_update bytes not flagged: %+v", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Class != ClassBytes {
		t.Fatalf("finding class %q, want bytes: %+v", f.Class, f)
	}
}

func TestDiffIgnoresWallAndAdditiveFields(t *testing.T) {
	a := writeDir(t, map[string]string{"report.json": `{
  "codelength": 10.0, "wall_ns": 123456, "stage1_wall_ns": 111}`})
	b := writeDir(t, map[string]string{"report.json": `{
  "codelength": 10.0, "wall_ns": 999999, "stage1_wall_ns": 222,
  "comms": {"by_kind": {"setup": {"bytes_sent": 9}}}}`})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("wall drift or additive field flagged: %+v", rep.Findings)
	}
	// The additive comms subtree shows up as a structural note only.
	for _, f := range rep.Findings {
		if f.Class != ClassStructure {
			t.Fatalf("unexpected non-structural finding: %+v", f)
		}
	}
}

func TestDiffFileSets(t *testing.T) {
	a := writeDir(t, map[string]string{
		"table1.json": baseExperiment,
		"old.json":    `{"x": 1}`,
	})
	b := writeDir(t, map[string]string{
		"table1.json": baseExperiment,
		"new.json":    `{"y": 2}`,
	})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("disjoint extras flagged: %+v", rep.Findings)
	}
	if len(rep.Files) != 1 || rep.Files[0] != "table1.json" {
		t.Fatalf("compared files %v, want [table1.json]", rep.Files)
	}
	if len(rep.OnlyBaseline) != 1 || rep.OnlyBaseline[0] != "old.json" {
		t.Fatalf("only-baseline %v", rep.OnlyBaseline)
	}
	if len(rep.OnlyCandidate) != 1 || rep.OnlyCandidate[0] != "new.json" {
		t.Fatalf("only-candidate %v", rep.OnlyCandidate)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct{ path, want string }{
		{"$.rows[0].Codelength", ClassCodelength},
		{"$.initial_codelength", ClassCodelength},
		{"$.rows[2].Modeled", ClassModeled},
		{"$.ranks[1].phase_modeled_ns.FindBestModule", ClassModeled},
		{"$.comms.by_kind.ghost_update.bytes_sent", ClassBytes},
		{"$.rows[0].Bytes", ClassBytes},
		{"$.rows[0].SeqNMI", ClassQuality},
		{"$.rows[0].Iterations", ClassOther},
		// Golden-file aliases: fig4/5 finals, table3, fig9, fig8 phases.
		{"$.rows[0].SeqFinal", ClassCodelength},
		{"$.rows[1].DistFinal", ClassCodelength},
		{"$.rows[0].OursL", ClassCodelength},
		{"$.rows[0].BaselineL", ClassCodelength},
		{"$.rows[0].Ours", ClassModeled},
		{"$.rows[0].Baseline", ClassModeled},
		{"$.rows[2].Stage1", ClassModeled},
		{"$.rows[2].Total", ClassModeled},
		{"$.rows[0].Phases.FindBestModule", ClassModeled},
		{"$.rows[0].BaselineP", ClassOther},
		{"$.rows[0].Sequential[2]", ClassOther},
	}
	for _, c := range cases {
		if got := classify(c.path); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.path, got, c.want)
		}
	}
	if !ignoredPath("$.ranks[0].iterations[3].wall_ns") {
		t.Error("wall_ns not ignored")
	}
	if ignoredPath("$.rows[0].Modeled") {
		t.Error("Modeled wrongly ignored")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
