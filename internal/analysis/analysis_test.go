package analysis

import "testing"

// TestCritical pins the files the determinism analyzers police: every
// repro/internal package, bar the exempt ones.
func TestCritical(t *testing.T) {
	for _, c := range []struct{ pkg, file string }{
		{"repro/internal/sim", "sim.go"},
		{"repro/internal/grid", "job.go"},
		{"repro/internal/federation", "federation.go"},
		{"repro/internal/campaign", "campaign.go"},
		{"repro/internal/core", "core.go"},
		{"repro/internal/scenario", "compile.go"},
		{"repro/internal/services", "wrapper.go"},
		{"repro/internal/iterstrat", "iterstrat.go"},
		{"repro/internal/workflow", "workflow.go"},
		{"repro/internal/scufl", "scufl.go"},
		{"repro/internal/provenance", "provenance.go"},
		{"repro/internal/daemon", "daemon.go"},
		{"repro/internal/grid/sub", "x.go"}, // subpackages are policed too
		{"repro/internal/analysisx", "x.go"},
	} {
		if !Critical(c.pkg, c.file) {
			t.Errorf("Critical(%q, %q) = false, want true", c.pkg, c.file)
		}
	}
	for _, c := range []struct{ pkg, file string }{
		{"repro", "moteur.go"},
		{"repro/cmd/moteurd", "main.go"},
		{"repro/internal/analysis", "analysis.go"},
		{"repro/internal/analysis/maprange", "maprange.go"},
		{"repro/internal/daemon", "clock.go"},
	} {
		if Critical(c.pkg, c.file) {
			t.Errorf("Critical(%q, %q) = true, want false", c.pkg, c.file)
		}
	}
}
