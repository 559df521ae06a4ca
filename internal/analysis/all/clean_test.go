package all_test

import (
	"testing"

	"dinfomap/internal/analysis"
	"dinfomap/internal/analysis/all"
)

// TestRepositoryIsClean runs the full analyzer suite — including the
// bufalias pooled-buffer check — over the module and demands zero
// findings: every true positive must be fixed and every false positive
// justified with a //dinfomap:<key> comment, so a regression in either
// direction fails go test, not just CI's vet job. Stale suppressions fail too: a justification comment
// that no longer suppresses anything (or names no registered key) is
// dead weight that would hide a future finding at the same site.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	names := map[string]bool{}
	for _, a := range all.Analyzers() {
		names[a.Name] = true
	}
	if !names["bufalias"] {
		t.Error("suite is missing the bufalias analyzer")
	}
	diags, stale, err := analysis.RunAnalyzersStale(all.Analyzers(), pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
	for _, d := range stale {
		t.Errorf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
}
