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
// -scenario is required: the world is always a scenario file (to sweep
// flag-built worlds, use cmd/federation). With -replay the daemon drains
// the boot campaign at the paced rate, prints the scenario report row and
// determinism fingerprint, and exits — a time-warped replay of the
// closed run.
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
		scenarioPath = flag.String("scenario", "", "scenario file to boot (required)")
		addr         = flag.String("addr", "127.0.0.1:8321", "HTTP listen address (empty disables HTTP)")
		warp         = flag.Float64("warp", 1, "virtual seconds advanced per wall-clock second (<= 0: as fast as possible)")
		replay       = flag.Bool("replay", false, "exit when the boot campaign completes and print its report and fingerprint")
		snapDir      = flag.String("snapshot-dir", "", "directory for periodic JSON state snapshots (empty disables)")
		snapEvery    = flag.Duration("snapshot-every", 10*time.Second, "wall-clock period between snapshots")
		verbose      = flag.Bool("v", false, "log pacing and snapshot activity")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(flag.CommandLine.Output(), "moteurd: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}

	spec, err := scenario.Load(*scenarioPath)
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
