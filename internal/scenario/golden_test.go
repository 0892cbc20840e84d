package scenario

import (
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// libraryPaths returns every spec of the shipped scenario library,
// failing the test if the library shrank below its advertised size.
func libraryPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("scenario library has %d specs, want at least 6", len(paths))
	}
	sort.Strings(paths)
	return paths
}

// scaleSpec reports whether a spec belongs to the scale tier of the
// library — tens of thousands of jobs, seconds of wall time per run.
// Scale specs keep the full two-run determinism golden in the default
// suite, but are skipped in short mode and under the race detector: the
// campaign path they exercise is single-goroutine, so racing them buys
// no coverage the small specs don't already provide, at ~100s a spec.
func scaleSpec(spec *Spec) bool {
	jobs := 0
	for _, g := range spec.Tenants {
		jobs += g.Count * g.Workload.Stages * g.Workload.Items
	}
	return jobs >= 50000
}

// runLibrarySpec loads, compiles and runs one library spec on a fresh
// engine, failing on any tenant error, and returns the run fingerprint.
func runLibrarySpec(t *testing.T, path string) uint64 {
	t.Helper()
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if scaleSpec(spec) {
		if testing.Short() {
			t.Skip("scale spec skipped in short mode")
		}
		if raceEnabled {
			t.Skip("scale spec skipped under the race detector (single-goroutine path, covered by small specs)")
		}
	}
	eng := sim.NewEngine()
	w, err := Compile(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}
	return Fingerprint(rep, w.Fed)
}

// libraryGolden pins every library spec's run fingerprint across
// commits. A change that moves one — a different eviction victim, a
// reordered event — must be intentional: regenerate the table with
// `go run ./cmd/goldengen` and call the change out in the commit.
var libraryGolden = map[string]uint64{
	"clean-baseline":    0x797e7080838dff20,
	"contended-wan":     0xa14066c30a7abc18,
	"flaky-grids":       0x2651e6b5e100cee3,
	"hetero-contention": 0x28ee6c1b8d26267a,
	"hetero-locality":   0x2f6c6afbfd3ab2cb,
	"hetero-scale":      0x140c3cf530419264,
	"locality-skew":     0xa198972064cd4f18,
	"metropolis":        0x11d3a29a2f81769e,
	"population-burst":  0x73d61f43d3bab4d9,
	"se-churn":          0xdca9732973289d06,
	"se-churn-lru":      0x797c49b5f3395606,
}

// TestScenarioLibraryDeterminism is the per-scenario golden gate: every
// spec of the shipped library is compiled and run twice from a fresh
// Load each time. The first run must match the spec's checked-in
// fingerprint in libraryGolden (per-tenant makespans, per-grid
// telemetry, WAN and storage churn), and the second must match the
// first. A spec file can never go nondeterministic, change behaviour
// across commits, or join the library unpinned silently.
func TestScenarioLibraryDeterminism(t *testing.T) {
	paths := libraryPaths(t)
	inLibrary := make(map[string]bool, len(paths))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		inLibrary[name] = true
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, ok := libraryGolden[name]
			if !ok {
				t.Fatalf("no golden fingerprint for %s: add it to libraryGolden (go run ./cmd/goldengen)", name)
			}
			first := runLibrarySpec(t, path)
			if first != want {
				t.Errorf("fingerprint %#x, golden %#x", first, want)
			}
			if again := runLibrarySpec(t, path); again != first {
				t.Fatalf("scenario not deterministic: %#x vs %#x", first, again)
			}
		})
	}
	for _, name := range slices.Sorted(maps.Keys(libraryGolden)) {
		if !inLibrary[name] {
			t.Errorf("libraryGolden pins %s, which is not in the library", name)
		}
	}
}

// TestScenarioLibraryLoads pins the library's metadata: every spec
// parses, validates, and names itself after its file — so the sweep
// table rows and the file listing stay in one-to-one correspondence.
func TestScenarioLibraryLoads(t *testing.T) {
	for _, path := range libraryPaths(t) {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		if want := spec.Name + ".json"; base != want {
			t.Errorf("%s: spec name %q does not match the file name", base, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("%s: spec has no description for the library table", base)
		}
	}
}
