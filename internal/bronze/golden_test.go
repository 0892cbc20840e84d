package bronze

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// goldenFingerprints pins the simulated makespan and an FNV-1a fingerprint
// of the complete execution (every invocation's processor, index key and
// Ready/Started/Finished instants, plus the sorted sink outputs) for every
// Table 1 configuration, per input size, at seed 1+size.
//
// The values were last captured after the multi-tenancy PR's two
// intentional grid-model changes: the additive rank floor that spreads
// matchmaking over idle clusters (previously every idle cluster ranked
// 0.0 and the largest always won), and the nonzero default
// SubmitLoadFactor that puts burst submission into the paper's loaded
// regime. Both change simulated timings; Table 1's optimization ordering
// was re-verified against the paper under the experiment's median-of-5
// protocol before pinning (TestMedianOrderingAt126 — note the pinned
// single-seed SP+DP cell at 126 is itself a within-noise flip above the
// DP cell). Regenerate with `go run ./cmd/goldengen` only when an
// intentional semantic change is made, and say so in the commit.
var goldenFingerprints = []struct {
	config   string
	size     int
	makespan time.Duration
	hash     uint64
}{
	{"NOP", 12, 12397104887371, 0xd86bfca5826caf15},
	{"NOP", 66, 67324192647516, 0xb7b64ac2faa65cc6},
	{"NOP", 126, 128525438636396, 0x71790d1e48f33092},
	{"JG", 12, 9966342996435, 0xa5d69340d022603e},
	{"JG", 66, 50613598696654, 0x9ff30ac389a17b97},
	{"JG", 126, 102219084893096, 0xbd487f9465285e84},
	{"SP", 12, 7409661220080, 0x73daf111ebd0d442},
	{"SP", 66, 33015609015298, 0x1c86c3fd43615b18},
	{"SP", 126, 65573509002533, 0xb8020e36675f3ca0},
	{"DP", 12, 3717500128710, 0xb5314408726b4d76},
	{"DP", 66, 12776810853591, 0x2e7cc8d5f5dbeabd},
	{"DP", 126, 21694835079022, 0x396d3c4b050a1efa},
	{"SP+DP", 12, 2198252955270, 0x38d1f2010cb9b284},
	{"SP+DP", 66, 9586327242317, 0x9ca4480d7c879ea7},
	{"SP+DP", 126, 22098051527463, 0xa896c100e0994d5e},
	{"SP+DP+JG", 12, 1946897513226, 0x996b2f203fc78bb7},
	{"SP+DP+JG", 66, 8515704709597, 0x6a49aba34f8b8d35},
	{"SP+DP+JG", 126, 15433982290288, 0x85997b0d992d2f1c},
}

// TestGoldenDeterminism runs every Table 1 cell and compares against the
// pre-refactor fingerprints: same seed, byte-identical trace and outputs.
func TestGoldenDeterminism(t *testing.T) {
	byName := make(map[string]Configuration)
	for _, cfg := range Configurations() {
		byName[cfg.Name] = cfg
	}
	for _, g := range goldenFingerprints {
		if testing.Short() && g.size > 12 {
			continue
		}
		t.Run(fmt.Sprintf("%s/%d", g.config, g.size), func(t *testing.T) {
			cfg, ok := byName[g.config]
			if !ok {
				t.Fatalf("unknown configuration %q", g.config)
			}
			p := DefaultParams()
			p.Seed = 1 + uint64(g.size)
			res, _, err := Run(g.size, cfg.Opts, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan != g.makespan {
				t.Errorf("makespan = %d (%v), golden %d (%v)",
					res.Makespan, res.Makespan, g.makespan, g.makespan)
			}
			if got := TraceFingerprint(res); got != g.hash {
				t.Errorf("trace fingerprint = %#x, golden %#x", got, g.hash)
			}
		})
	}
}

// TestMedianOrderingAt126 guards the headline paper invariant at the full
// experiment scale: under the Table 1 protocol (median of 5 seeded
// repetitions), service parallelism on top of data parallelism still pays
// off at 126 pairs on the default (saturating) grid. Single seeds can
// flip this within noise — the pinned golden seed does — which is exactly
// why the experiment, like the paper's, reports medians.
func TestMedianOrderingAt126(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	median := func(opts core.Options) time.Duration {
		times := make([]time.Duration, 0, Repeats)
		for rep := 0; rep < Repeats; rep++ {
			p := DefaultParams()
			p.Seed = 1 + 126 + uint64(rep)*7919
			p.Grid.Seed = 0
			res, _, err := Run(126, opts, p)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, res.Makespan)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2]
	}
	dp := median(core.Options{DataParallelism: true})
	spdp := median(core.Options{DataParallelism: true, ServiceParallelism: true})
	if spdp >= dp {
		t.Fatalf("SP+DP median (%v) not below DP median (%v) at 126 pairs: the saturation calibration broke the paper's ordering", spdp, dp)
	}
}
