package maprange

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestMapRange runs the analyzer over the critical fixture (map ranges,
// justifications, empty reasons, stale directives, a generic map
// constraint, and slice/string/channel/int negatives) and the
// non-critical fixture, which must stay silent.
func TestMapRange(t *testing.T) {
	a := New(func(pkgPath, _ string) bool { return pkgPath == "mapcrit" })
	analysistest.Run(t, "../testdata", a, "mapcrit", "mapclean")
}
