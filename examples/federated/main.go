// Federated quickstart: run a small multi-tenant campaign across a
// 3-grid federation with the locality-aware overhead-ranked broker
// policy. Each tenant's input files are resident on a home grid and
// cross-grid fetches pay a WAN link, so the broker has to weigh data
// movement against middleware quality. The world is a scenario spec
// compiled by internal/scenario, the same builder behind the scenarios/
// library files. This is the program mirrored in the top-level README;
// the full sweep CLI is cmd/federation.
package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	spec := &scenario.Spec{
		Name:  "quickstart",
		Grids: scenario.HeterogeneousGrids(3, 1), // 3 grids, skewed capacity + UI latency
		// Cross-grid fetches pay a 2 MB/s, 5 s-latency WAN link (a nil
		// Links section would mean the same default).
		Links:    &scenario.LinksSpec{WANMBps: 2, WANLatency: scenario.Duration(5 * time.Second)},
		Broker:   &scenario.BrokerSpec{Policy: "ranked", Rebroker: 1}, // one cross-grid retry after terminal failure
		Policies: map[string]scenario.OptionsSpec{"spdp": {ServiceParallelism: true, DataParallelism: true}},
		Tenants: []scenario.TenantGroup{{
			Count:    4,
			Prefix:   "t",
			Policy:   scenario.PolicyList{"spdp"},
			Arrivals: &scenario.ArrivalSpec{Kind: "staggered", Spread: scenario.Duration(time.Minute)},
			Workload: scenario.WorkloadSpec{
				Stages: 3, Items: 10, Runtime: scenario.Duration(2 * time.Minute),
				Sizes: scenario.SizeSpec{Kind: "constant", MeanMB: 5},
				Skew:  1, Homes: []string{"grid00", "grid01", "grid02"}, // inputs resident on a rotating home grid
			},
		}},
	}
	w, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		panic(err)
	}
	rep, err := w.Run()
	if err != nil {
		panic(err)
	}
	for _, tr := range rep.Tenants {
		fmt.Printf("%s: makespan %v, %d jobs, overhead p90 %v\n",
			tr.Name, tr.Makespan.Round(time.Second),
			tr.Overheads.Jobs, tr.Overheads.P90.Round(time.Second))
	}
	fed := w.Fed
	for i := 0; i < fed.Size(); i++ {
		fmt.Printf("%s: %d jobs dispatched, submit EWMA %v, %.0f MB over the WAN\n",
			fed.GridName(i), fed.Telemetry(i).Dispatched,
			fed.Telemetry(i).SubmitEWMA.Round(time.Second), fed.Grid(i).RemoteInMB())
	}
	fmt.Printf("campaign span %v — global: %s\n", rep.Makespan.Round(time.Second), rep.Global)
}
