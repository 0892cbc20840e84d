// Command moteurd runs the federation simulator as a long-running
// online broker daemon: it boots a scenario world, paces virtual time
// against the wall clock (real-time, warped, or as fast as possible),
// accepts job submissions and outage commands over HTTP, serves live
// telemetry on /metrics, and writes periodic JSON state snapshots.
//
//	moteurd -scenario scenarios/clean-baseline.json -warp 60
//	curl -s localhost:8321/metrics
//	curl -s -X POST localhost:8321/submit -d '{"name":"probe","runtimeSeconds":30}'
//
// Without -scenario an ad-hoc world is assembled from the topology
// flags (-grids, -tenants, -items, -services, -runtime, -filemb,
// -spread, -seed). With -replay the daemon drains the boot campaign at
// the paced rate, prints the scenario report row and determinism
// fingerprint, and exits — a time-warped replay of the closed run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file to boot (empty: build an ad-hoc world from the topology flags)")
		addr         = flag.String("addr", "127.0.0.1:8321", "HTTP listen address (empty disables HTTP)")
		warp         = flag.Float64("warp", 1, "virtual seconds advanced per wall-clock second (<= 0: as fast as possible)")
		replay       = flag.Bool("replay", false, "exit when the boot campaign completes and print its report and fingerprint")
		snapDir      = flag.String("snapshot-dir", "", "directory for periodic JSON state snapshots (empty disables)")
		snapEvery    = flag.Duration("snapshot-every", 10*time.Second, "wall-clock period between snapshots")
		verbose      = flag.Bool("v", false, "log pacing and snapshot activity")

		grids    = flag.Int("grids", 2, "ad-hoc world: member grid count")
		nodes    = flag.Int("nodes", 24, "ad-hoc world: worker nodes per grid")
		tenants  = flag.Int("tenants", 4, "ad-hoc world: tenant count")
		services = flag.Int("services", 3, "ad-hoc world: pipeline depth per tenant")
		items    = flag.Int("items", 12, "ad-hoc world: input corpus size per tenant")
		runtime  = flag.Duration("runtime", 30*time.Second, "ad-hoc world: per-stage compute time")
		filemb   = flag.Float64("filemb", 10, "ad-hoc world: input file size in MB")
		spread   = flag.Duration("spread", time.Minute, "ad-hoc world: tenant arrival stagger")
		seed     = flag.Uint64("seed", 1, "ad-hoc world: root seed")
	)
	flag.Parse()

	spec, err := loadSpec(*scenarioPath, adhoc{
		grids: *grids, nodes: *nodes, tenants: *tenants, services: *services,
		items: *items, runtime: *runtime, filemb: *filemb, spread: *spread, seed: *seed,
	})
	if err != nil {
		log.Fatalf("moteurd: %v", err)
	}
	eng := sim.NewEngine()
	world, err := scenario.Compile(eng, spec)
	if err != nil {
		log.Fatalf("moteurd: %v", err)
	}

	cfg := daemon.Config{
		World:         world,
		Warp:          *warp,
		Replay:        *replay,
		Addr:          *addr,
		SnapshotDir:   *snapDir,
		SnapshotEvery: *snapEvery,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	d, err := daemon.New(cfg)
	if err != nil {
		log.Fatalf("moteurd: %v", err)
	}
	if err := d.Start(); err != nil {
		log.Fatalf("moteurd: %v", err)
	}
	if a := d.Addr(); a != "" {
		log.Printf("moteurd: scenario %q on http://%s (warp %g)", spec.Name, a, *warp)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("moteurd: %v, shutting down", sig)
		d.Stop()
	case <-d.Wait():
		d.Stop() // replay finished on its own; close the HTTP front-end
	}

	if *replay {
		rep := d.Report()
		ok := 0
		for _, t := range rep.Tenants {
			if t.Err == nil {
				ok++
			}
		}
		fmt.Printf("scenario %s: %d/%d tenants ok, makespan %v, fingerprint %016x\n",
			spec.Name, ok, len(rep.Tenants), rep.Makespan, d.Fingerprint())
	}
}

// adhoc bundles the topology flags of a scenario-less boot.
type adhoc struct {
	grids, nodes, tenants, services, items int
	runtime, spread                        time.Duration
	filemb                                 float64
	seed                                   uint64
}

// loadSpec loads the scenario file, or assembles the ad-hoc spec from
// the topology flags when no file is given.
func loadSpec(path string, a adhoc) (*scenario.Spec, error) {
	if path != "" {
		return scenario.Load(path)
	}
	spec := &scenario.Spec{
		Name:        "adhoc",
		Description: "ad-hoc world from moteurd topology flags",
		Seed:        a.seed,
		Grids:       []scenario.GridSpec{{Name: "g", Count: a.grids, Nodes: a.nodes}},
		Links:       &scenario.LinksSpec{Local: true},
		Policies: map[string]scenario.OptionsSpec{
			"par": {DataParallelism: true, ServiceParallelism: true},
		},
		Tenants: []scenario.TenantGroup{{
			Count:    a.tenants,
			Prefix:   "t",
			Policy:   scenario.PolicyList{"par"},
			Arrivals: &scenario.ArrivalSpec{Kind: "staggered", Spread: scenario.Duration(a.spread)},
			Workload: scenario.WorkloadSpec{
				Stages:  a.services,
				Items:   a.items,
				Runtime: scenario.Duration(a.runtime),
				Sizes:   scenario.SizeSpec{Kind: "constant", MeanMB: a.filemb},
			},
		}},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
