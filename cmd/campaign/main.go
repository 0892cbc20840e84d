// Command campaign runs a multi-tenant enactment campaign on the default
// production-grid model and reports per-tenant makespans, overheads and
// fairness. Each tenant enacts a synthetic linear pipeline; the
// optimization mix cycles across tenants so heterogeneous contention
// scenarios (SP-only vs DP+JG vs batched vs adaptive) come out of one
// command line. The flags synthesize one scenario.Spec — a single
// default-preset grid with local links (a one-grid federation) and one
// staggered tenant group rotating four option mixes — which the scenario
// compiler builds, exactly as cmd/federation does for its sweeps.
//
// With -scenario the whole world comes from a declarative spec file
// (internal/scenario) instead: the campaign runs on the scenario's
// federation with its tenant mix, and the workload flags become
// overrides of the spec.
//
// Examples:
//
//	campaign -tenants 8 -services 4 -items 20
//	campaign -tenants 8 -fifo          # tenancy-unaware FIFO, for comparison
//	campaign -tenants 4 -adapt 10m     # adaptive granularity feedback loop
//	campaign -scenario scenarios/population-burst.json
//	campaign -scenario scenarios/clean-baseline.json -items 40
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mixes is the optimization rotation across tenants: tenant i of the
// flag-mode group runs mixOrder[i%4].
var (
	mixes = map[string]scenario.OptionsSpec{
		"spdp":       {ServiceParallelism: true, DataParallelism: true},
		"spdp-jg":    {ServiceParallelism: true, DataParallelism: true, JobGrouping: true},
		"dp":         {DataParallelism: true},
		"spdp-batch": {ServiceParallelism: true, DataParallelism: true, DataGroupSize: 4, DataGroupWindow: scenario.Duration(time.Minute)},
	}
	mixOrder = scenario.PolicyList{"spdp", "spdp-jg", "dp", "spdp-batch"}
)

func main() {
	var (
		tenants      = flag.Int("tenants", 8, "number of concurrent tenants")
		servs        = flag.Int("services", 4, "pipeline stages per tenant workflow")
		items        = flag.Int("items", 20, "input data items per tenant")
		runtime      = flag.Duration("runtime", 2*time.Minute, "per-stage compute time")
		fileMB       = flag.Float64("filemb", 5, "input/intermediate file size (MB)")
		spread       = flag.Duration("spread", time.Minute, "arrival stagger between tenants")
		seed         = flag.Uint64("seed", 1, "grid random seed")
		fifo         = flag.Bool("fifo", false, "strict FIFO at the UI instead of the fair-share gate")
		adapt        = flag.Duration("adapt", 0, "adaptive-granularity retuning period (0 disables)")
		horizon      = flag.Duration("horizon", 14*24*time.Hour, "background-load horizon")
		scenarioPath = flag.String("scenario", "", "run a declarative scenario file; workload flags become overrides of the spec")
		showAdpt     = flag.Bool("v", false, "print every adaptation decision")
	)
	flag.Parse()

	if *scenarioPath != "" {
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"fifo", "adapt", "horizon"} {
			if set[name] {
				exit(2, "-%s cannot override a scenario; edit the spec instead", name)
			}
		}
		ov := scenario.Overrides{}
		if set["seed"] {
			ov.Seed = seed
		}
		if set["tenants"] {
			ov.Tenants = tenants
		}
		if set["services"] {
			ov.Stages = servs
		}
		if set["items"] {
			ov.Items = items
		}
		if set["runtime"] {
			ov.Runtime = runtime
		}
		if set["filemb"] {
			ov.FileMB = fileMB
		}
		if set["spread"] {
			ov.Spread = spread
		}
		runScenario(*scenarioPath, ov, *showAdpt)
		return
	}

	// Flag mode: synthesize the world as a spec. The spec would silently
	// read a zero seed as 1, a zero horizon as the preset's, and a zero
	// tenant count as one tenant.
	if *tenants < 1 {
		exit(2, "-tenants must be positive, got %d", *tenants)
	}
	if *seed == 0 {
		exit(2, "-seed must be positive")
	}
	if *horizon <= 0 {
		exit(2, "-horizon must be positive, got %v", *horizon)
	}
	group := scenario.TenantGroup{
		Count:    *tenants,
		Prefix:   "t",
		Policy:   mixOrder,
		Arrivals: &scenario.ArrivalSpec{Kind: "staggered", Spread: scenario.Duration(*spread)},
		Workload: scenario.WorkloadSpec{
			Stages:  *servs,
			Items:   *items,
			Runtime: scenario.Duration(*runtime),
			Sizes:   scenario.SizeSpec{Kind: "constant", MeanMB: *fileMB},
		},
	}
	if *adapt > 0 {
		group.Adapt = &scenario.AdaptSpec{Interval: scenario.Duration(*adapt), MaxBatch: *items}
	}
	spec := &scenario.Spec{
		Name: "flags",
		Seed: *seed,
		Grids: []scenario.GridSpec{{
			Name:              "grid",
			Preset:            "default",
			Seed:              *seed,
			StrictFIFO:        *fifo,
			BackgroundHorizon: scenario.Duration(*horizon),
		}},
		Links:    &scenario.LinksSpec{Local: true},
		Policies: mixes,
		Tenants:  []scenario.TenantGroup{group},
	}
	if err := spec.Validate(); err != nil {
		exit(2, "%v", err)
	}

	gate := "fair-share"
	if *fifo {
		gate = "strict FIFO"
	}
	header := fmt.Sprintf("campaign: %d tenants × %d-stage chains × %d items on the default grid (%s gate, seed %d)",
		*tenants, *servs, *items, gate, *seed)
	printReport(run(spec, header), *showAdpt)
}

// exit prints a prefixed error and exits with the code: 2 for bad input,
// 1 for a world or run that failed.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	os.Exit(code)
}

// run compiles the spec on a fresh engine, prints the header line and
// enacts the world.
func run(spec *scenario.Spec, header string) *campaign.Report {
	w, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		exit(1, "%v", err)
	}
	fmt.Printf("%s\n\n", header)
	rep, err := w.Run()
	if err != nil {
		exit(1, "%v", err)
	}
	return rep
}

// runScenario compiles and runs one spec file with CLI overrides applied,
// then prints the standard per-tenant table.
func runScenario(path string, ov scenario.Overrides, showAdpt bool) {
	spec, err := scenario.Load(path)
	if err != nil {
		exit(2, "%v", err)
	}
	if err := ov.Apply(spec); err != nil {
		exit(2, "%v", err)
	}
	header := fmt.Sprintf("campaign: scenario %s — %d tenants over %d grids (seed %d)",
		spec.Name, spec.TenantCount(), len(spec.GridNames()), spec.Seed)
	printReport(run(spec, header), showAdpt)
}

// printReport prints the per-tenant makespan/overhead table and the
// campaign totals.
func printReport(rep *campaign.Report, showAdpt bool) {
	fmt.Printf("%-16s %10s %12s %6s %12s %12s %10s\n",
		"tenant", "arrival", "makespan", "jobs", "ovh mean", "ovh p90", "resubmits")
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Printf("%-16s %10s %12s  FAILED: %v\n", tr.Name, tr.Arrival, "-", tr.Err)
			continue
		}
		fmt.Printf("%-16s %10v %12v %6d %12v %12v %10d\n",
			tr.Name, tr.Arrival, tr.Makespan.Round(time.Second),
			tr.Overheads.Jobs+tr.Overheads.Failed,
			tr.Overheads.Mean.Round(time.Second), tr.Overheads.P90.Round(time.Second),
			tr.Overheads.Resubmits)
		if showAdpt {
			for _, a := range tr.Adaptations {
				fmt.Printf("    adapt @%v: batch=%d predicted=%v observed-overhead=%v\n",
					a.At.Round(time.Second), a.Batch,
					a.Predicted.Round(time.Second), a.Overhead.Round(time.Second))
			}
		}
	}
	fmt.Printf("\ncampaign span %v\n", rep.Makespan.Round(time.Second))
	fmt.Printf("global: %s\n", rep.Global)
	fmt.Printf("phases: %s\n", rep.GlobalPhases)
}
