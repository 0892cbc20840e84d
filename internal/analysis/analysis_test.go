package analysis

import "testing"

// TestCritical pins the package set the determinism analyzers police.
func TestCritical(t *testing.T) {
	for _, p := range []string{
		"repro/internal/sim",
		"repro/internal/grid",
		"repro/internal/federation",
		"repro/internal/campaign",
		"repro/internal/core",
		"repro/internal/scenario",
	} {
		if !Critical(p) {
			t.Errorf("Critical(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"repro",
		"repro/internal/rng",
		"repro/internal/metrics",
		"repro/internal/grid/sub", // only the exact packages are gated
	} {
		if Critical(p) {
			t.Errorf("Critical(%q) = true, want false", p)
		}
	}
}
