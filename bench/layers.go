package main

import (
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// Standalone layer timings. Each is the median of microTrials timed
// loops, so one preempted loop on a shared host does not move it.
const microTrials = 5

// microSink keeps the timed loops' results observable.
var microSink int

func medianTrial(trial func() float64) float64 {
	xs := make([]float64, microTrials)
	for i := range xs {
		xs[i] = trial()
	}
	return median(xs)
}

// engineMicro times the event engine and a resource on synthetic load:
// bursts of events at one instant (one bucket), events at distinct
// instants (one bucket each), and hold-for-a-duration resource cycles.
func engineMicro(o *outcome) {
	const batch, rounds = 4096, 16
	events := func(at func(i int) time.Duration) func() float64 {
		return func() float64 {
			eng := sim.NewEngine()
			fn := func() { microSink++ }
			t := time.Now()
			for r := 0; r < rounds; r++ {
				for i := 0; i < batch; i++ {
					eng.Schedule(at(i), fn)
				}
				eng.Run()
			}
			return float64(time.Since(t).Nanoseconds()) / (batch * rounds)
		}
	}
	o.perLayer["sim.burst_ns_per_event"] = medianTrial(events(func(int) time.Duration { return time.Second }))
	o.perLayer["sim.spread_ns_per_event"] = medianTrial(events(func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond }))
	// Twice the capacity per round: half the holds are granted at once,
	// half wait in the queue for a release.
	const slots, cycles = 8, 32768
	o.perLayer["sim.resource_cycle_ns"] = medianTrial(func() float64 {
		eng := sim.NewEngine()
		res := sim.NewResource(eng, slots)
		t := time.Now()
		for r := 0; r < cycles/(2*slots); r++ {
			for i := 0; i < 2*slots; i++ {
				res.Use(time.Second, nil)
			}
			eng.Run()
		}
		return float64(time.Since(t).Nanoseconds()) / cycles
	})
}

// federationViews rebuilds the broker's per-grid views of a finished
// world, without the per-job affinity signals (grid.catalog_plan_ns
// times the planning behind those).
func federationViews(f *federation.Federation) []federation.GridView {
	views := make([]federation.GridView, f.Size())
	for i := range views {
		views[i] = federation.GridView{
			Index: i, Name: f.GridName(i), Down: f.Down(i), StorageDown: f.StorageDown(i),
			Load: f.Grid(i).Load(), Telemetry: f.Telemetry(i),
		}
	}
	return views
}

// pickNs times the broker policy's Pick over the views.
func pickNs(pol federation.Policy, views []federation.GridView) float64 {
	const picks = 20000
	return medianTrial(func() float64 {
		t := time.Now()
		for i := 0; i < picks; i++ {
			microSink += pol.Pick(views, -1)
		}
		return float64(time.Since(t).Nanoseconds()) / picks
	})
}

// planInputSets is how many of the run's job input sets planNs replays.
const planInputSets = 512

// planNs times Catalog.Plan — the broker's and the cluster ranker's
// stage-in estimate — over input sets of the run's jobs, sampled evenly,
// against every grid, on the final catalog.
func planNs(cat *grid.Catalog, grids []*grid.Grid) float64 {
	var sets [][]string
	for _, g := range grids {
		for _, r := range g.Records() {
			if len(r.Spec.Inputs) > 0 {
				sets = append(sets, r.Spec.Inputs)
			}
		}
	}
	if len(sets) == 0 {
		return 0
	}
	if len(sets) > planInputSets {
		step := len(sets) / planInputSets
		sampled := make([][]string, 0, planInputSets)
		for i := 0; i < planInputSets; i++ {
			sampled = append(sampled, sets[i*step])
		}
		sets = sampled
	}
	return medianTrial(func() float64 {
		t := time.Now()
		for _, in := range sets {
			for _, g := range grids {
				microSink += int(cat.Plan(in, grid.Site{Grid: g.Name()}).LocalMB)
			}
		}
		return float64(time.Since(t).Nanoseconds()) / float64(len(sets)*len(grids))
	})
}
