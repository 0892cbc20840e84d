package simtime

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestSimTime runs the analyzer over the critical fixture (wall-clock
// calls, a math/rand import, fmt output inside a map range, plus the
// Sprintf and duration negatives) and the non-critical fixture, which
// must stay silent.
func TestSimTime(t *testing.T) {
	a := New(func(pkgPath, _ string) bool { return pkgPath == "timecrit" })
	analysistest.Run(t, "../testdata", a, "timecrit", "timeclean")
}
