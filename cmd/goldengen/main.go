// Command goldengen prints the golden determinism fingerprints the test
// suite pins, as Go table rows ready to paste:
//
//   - for the Table 1 configurations (internal/bronze goldenFingerprints):
//     per (config, size), the simulated makespan in nanoseconds and
//     bronze.TraceFingerprint, an FNV-1a hash over the full invocation
//     trace and sink outputs;
//   - for the scenario library (internal/scenario libraryGolden): per
//     scenarios/*.json spec, its scenario.Fingerprint.
//
// Run it from the repository root. Used to pin enactor and federation
// behaviour across refactors.
package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bronze"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	for _, cfg := range bronze.Configurations() {
		for _, size := range bronze.PaperSizes {
			p := bronze.DefaultParams()
			p.Seed = 1 + uint64(size)
			res, _, err := bronze.Run(size, cfg.Opts, p)
			if err != nil {
				panic(err)
			}
			fmt.Printf("{%q, %d, %d, %#x},\n", cfg.Name, size, res.Makespan, bronze.TraceFingerprint(res))
		}
	}
	fmt.Println()
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		panic(err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			panic(err)
		}
		w, err := scenario.Compile(sim.NewEngine(), spec)
		if err != nil {
			panic(err)
		}
		rep, err := w.Run()
		if err != nil {
			panic(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		fmt.Printf("%q: %#x,\n", name, scenario.Fingerprint(rep, w.Fed))
	}
}
