package core

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"dinfomap/internal/obs"
)

// FuzzAssemble feeds hostile bytes through the path a multi-process
// launcher takes with its ranks' artifact files: decode two artifacts
// of a 2-rank world, assemble them, merge their telemetry sections,
// and build the analysis sections and trace the merged telemetry
// feeds. Every input must give a result or an error, never a panic or
// a hang. The seed corpus is the artifact pair of an observed 2-rank
// amazon run over the proc transport (scale 0.05, seed 1).
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, rank0, rank1 []byte) {
		const p = 2
		arts := make([]*RankArtifact, p)
		sections := make([]*obs.RankTelemetry, p)
		for r, data := range [][]byte{rank0, rank1} {
			arts[r] = &RankArtifact{}
			if err := json.Unmarshal(data, arts[r]); err != nil {
				return
			}
			sections[r] = arts[r].Telemetry
		}
		res, err := Assemble(Config{P: p}, arts)
		j := obs.MergeTelemetry(p, time.Unix(0, 0), sections)
		if err != nil {
			if res != nil {
				t.Fatalf("Assemble returned a result with error %v", err)
			}
			return
		}
		obs.CriticalPath(j)
		obs.RunWall(j)
		obs.BuildLostTime(res.CommStats, j)
		if err := obs.WriteChromeTrace(io.Discard, j); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
	})
}
