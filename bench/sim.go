package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bronze"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/services"
	"repro/internal/sim"
)

// minReps is the fewest repetitions a run makes: enough for a median in
// an untraced run, one untraced and one traced repetition in a traced run.
func minReps(trace bool) int {
	if trace {
		return 2
	}
	return 3
}

// campaignRun is one repetition of a scenario workload.
type campaignRun struct {
	setup, run time.Duration // parse+compile+start; step loop+report
	attempts   int
	fp         uint64
	w          *scenario.World
	rep        *campaign.Report
	gc         gcDelta
}

// setupSamples is the fewest set-up timings a run takes its setup_s
// median from; runs whose repetitions are fewer add set-up-only ones.
const setupSamples = 7

// startWorld builds a fresh world from the workload file, seeded from the
// root seed, and starts its campaign on the world's engine.
func startWorld(data []byte, file string, seed uint64, rec *recorder) (*scenario.World, *campaign.Execution, error) {
	var (
		w   *scenario.World
		x   *campaign.Execution
		err error
	)
	within(rec, spanCompile, func() {
		var s *scenario.Spec
		if s, err = scenario.Parse(data, file); err != nil {
			return
		}
		s.Seed = seed
		w, err = scenario.Compile(sim.NewEngine(), s)
	})
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		traceTenants(w.Tenants, rec)
	}
	within(rec, spanStart, func() { x, err = w.Start() })
	if err != nil {
		return nil, nil, err
	}
	return w, x, nil
}

// runCampaignRep starts a fresh world, enacts its campaign to the end
// and reports it. With a recorder, every layer boundary is timed.
func runCampaignRep(data []byte, file string, seed uint64, rec *recorder) (*campaignRun, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t0 := time.Now()
	w, x, err := startWorld(data, file, seed, rec)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if rec != nil {
		rec.step(w.Eng, x.Done)
	} else {
		for !x.Done() && w.Eng.Step() {
		}
	}
	var rep *campaign.Report
	within(rec, spanReport, func() { rep = x.Report() })
	r := &campaignRun{setup: t1.Sub(t0), run: time.Since(t1), gc: gcSince(ms), w: w, rep: rep}
	for i := 0; i < w.Fed.Size(); i++ {
		for _, jr := range w.Fed.Grid(i).Records() {
			r.attempts += jr.Attempts
		}
	}
	r.fp = scenario.Fingerprint(rep, w.Fed)
	return r, nil
}

// derivedSeeds returns n seeds derived from the root seed, the root
// first. The offsets stay clear of the per-cell offsets bronze.Table1
// adds to its seed.
func derivedSeeds(root uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for k := range seeds {
		seeds[k] = root + uint64(k)<<20
	}
	return seeds
}

// campaignWorkload is a scenario workload whose repetitions each enact
// one fresh world per derived seed. One world suffices when the world's
// cost barely depends on its seed (metropolis); storage-churn's cost
// swings with the seed — which outage meets which eviction storm — so a
// repetition averages over several.
func campaignWorkload(worlds int) func(runConfig, []byte, string) (*outcome, error) {
	return func(c runConfig, data []byte, file string) (*outcome, error) {
		return runCampaign(c, data, file, derivedSeeds(c.seed, worlds))
	}
}

// runCampaign runs repetitions of a scenario file, each enacting one
// fresh world per seed.
func runCampaign(c runConfig, data []byte, file string, seeds []uint64) (*outcome, error) {
	o := newOutcome()
	var (
		setups, runs, rates, tracedRates []float64
		gcs                              []gcDelta
		fps                              []uint64
		last, traced                     []*campaignRun
		rec                              *recorder
	)
	err := repeat(c.budget, minReps(c.trace), func(i int) error {
		last = nil
		var r *recorder
		if c.trace && i%2 == 1 {
			r = newRecorder()
		}
		var (
			setup, run time.Duration
			attempts   int
			gc         gcDelta
			worlds     []*campaignRun
		)
		h := fnv.New64a()
		for _, seed := range seeds {
			runtime.GC()
			cr, err := runCampaignRep(data, file, seed, r)
			if err != nil {
				return err
			}
			worlds = append(worlds, cr)
			setup += cr.setup
			run += cr.run
			attempts += cr.attempts
			gc = gc.plus(cr.gc)
			fmt.Fprintf(h, "%x\n", cr.fp)
			o.attempted += len(cr.rep.Tenants)
			for _, tr := range cr.rep.Tenants {
				if tr.Err != nil {
					o.failed++
				}
			}
		}
		last = worlds
		fps = append(fps, h.Sum64())
		rate := float64(attempts) / run.Seconds()
		if r != nil {
			traced, rec = worlds, r
			tracedRates = append(tracedRates, rate)
			return nil
		}
		setups = append(setups, setup.Seconds())
		runs = append(runs, run.Seconds())
		rates = append(rates, rate)
		gcs = append(gcs, gc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	checkDeterministic(o, fps)
	logSpread(c.log, "repetitions", runs)
	for !c.trace && len(setups) < setupSamples {
		var setup time.Duration
		for _, seed := range seeds {
			runtime.GC()
			t := time.Now()
			if _, _, err := startWorld(data, file, seed, nil); err != nil {
				return nil, err
			}
			setup += time.Since(t)
		}
		setups = append(setups, setup.Seconds())
	}
	o.endToEnd["setup_s"] = median(setups)
	o.endToEnd["ops_per_s"] = median(rates)
	o.endToEnd["latency_ms"] = median(runs) * 1e3
	o.endToEnd["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	if !c.trace {
		return o, nil
	}

	l := o.perLayer
	zeroLayers(l, "bronze.", "daemon.", "loadgen.")
	l["scenario.compile_s"] = rec.total(spanCompile).total.Seconds()
	l["campaign.start_s"] = rec.total(spanStart).total.Seconds()
	l["campaign.report_s"] = rec.total(spanReport).total.Seconds()
	attempts := 0
	var events uint64
	for _, cr := range traced {
		events += cr.w.Eng.Fired()
		attempts += cr.attempts
		infraCounters(l, gridsOf(cr.w.Fed), cr.w.Fed.Catalog(), cr.w.Fed)
	}
	l["sim.events"] = float64(events)
	l["sim.events_per_s"] = float64(events) / median(runs)
	l["sim.pending_peak"] = float64(rec.pendingPeak)
	// Simulated outcomes and standalone timings use the root seed's world.
	root := traced[0]
	l["sim.makespan_s"] = root.rep.Makespan.Seconds()
	var spans []time.Duration
	for _, tr := range root.rep.Tenants {
		spans = append(spans, tr.Makespan)
	}
	l["sim.p95_tenant_s"] = p95Seconds(spans)
	reportSpans(o, rec)
	l["federation.pick_ns"] = pickNs(root.w.Fed.Policy(), federationViews(root.w.Fed))
	l["grid.catalog_plan_ns"] = planNs(root.w.Fed.Catalog(), gridsOf(root.w.Fed))
	engineMicro(o)
	reportGC(o, gcs, attempts)
	l["trace.overhead_pct"] = overheadPct(rates, tracedRates)
	if c.traceDir != "" {
		if err := rec.writeChrome(c.traceDir + ".trace.json"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// logSpread prints how the untraced repetitions' wall times spread.
func logSpread(w io.Writer, what string, secs []float64) {
	if len(secs) == 0 {
		return
	}
	s := sorted(secs)
	fmt.Fprintf(w, "  untraced %s (%d): min %.3f s, median %.3f s, max %.3f s\n", what, len(s), s[0], median(s), s[len(s)-1])
}

// zeroLayers reports zero for every per-layer metric under the given
// prefixes: the layers a workload does not exercise.
func zeroLayers(l map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				l[d.name] = 0
			}
		}
	}
}

// checkDeterministic requires every repetition, traced or not, to have
// produced the same fingerprint.
func checkDeterministic(o *outcome, fps []uint64) {
	for i, fp := range fps {
		o.check(fp == fps[0], "repetition %d fingerprint %016x differs from repetition 0's %016x", i, fp, fps[0])
	}
}

// reportSpans fills the step-loop span metrics of a traced repetition.
func reportSpans(o *outcome, rec *recorder) {
	l := o.perLayer
	sub, cb := rec.total(spanSubmit), rec.total(spanCallback)
	l["sim.step_self_s"] = rec.total(spanSteps).self.Seconds()
	l["federation.submit_calls"] = float64(sub.calls)
	l["federation.submit_self_s"] = sub.self.Seconds()
	l["federation.submit_us_mean"] = 0
	if sub.calls > 0 {
		l["federation.submit_us_mean"] = float64(sub.total.Microseconds()) / float64(sub.calls)
	}
	l["core.callback_calls"] = float64(cb.calls)
	l["core.callback_self_s"] = cb.self.Seconds()
}

func gridsOf(f *federation.Federation) []*grid.Grid {
	gs := make([]*grid.Grid, f.Size())
	for i := range gs {
		gs[i] = f.Grid(i)
	}
	return gs
}

// infraCounters adds the grids' and the federation's (nil for a single
// grid) work and waste counters into l.
func infraCounters(l map[string]float64, grids []*grid.Grid, cat *grid.Catalog, f *federation.Federation) {
	var evictions uint64
	var evictedMB float64
	for _, st := range cat.SEStats() {
		evictions += st.Evictions
		evictedMB += st.EvictedMB
	}
	l["grid.evictions"] += float64(evictions)
	l["grid.evicted_mb"] += evictedMB
	for _, g := range grids {
		for _, r := range g.Records() {
			// Every attempt but a job's last failed; so did the last one
			// of a failed job.
			failed := max(r.Attempts-1, 0)
			if r.Status == grid.StatusFailed {
				failed++
			}
			l["grid.attempts"] += float64(r.Attempts)
			l["grid.failed"] += float64(failed)
		}
		l["grid.remote_in_mb"] += g.RemoteInMB()
		l["grid.wan_wait_s"] += g.WANWait().Seconds()
		l["grid.restages"] += float64(g.Restages())
	}
	// A single grid has no broker: its federation counters stay zero.
	l["federation.rebrokered"] += 0
	l["federation.repairs"] += 0
	l["federation.repaired_mb"] += 0
	if f != nil {
		for i := 0; i < f.Size(); i++ {
			l["federation.rebrokered"] += float64(f.Telemetry(i).Rebrokered)
		}
		l["federation.repairs"] += float64(f.Repairs())
		l["federation.repaired_mb"] += f.RepairedMB()
	}
}

// paperPass is one pass of the paper's Table 1 protocol.
type paperPass struct {
	build, enact time.Duration
	enactMs      []float64
	attempts     int
	events       uint64
	failed       int
	firstErr     error
	makespans    []time.Duration
	medians      map[string][]time.Duration // configuration → per-size median makespan
	fp           uint64
	last         *bronze.App
	counters     map[string]float64
	gc           gcDelta
}

// paperSeeds is how many Table 1 protocols, at seeds derived from the
// root seed, one paper-table1 pass runs. The cost of one protocol swings
// with its seed (failures and retries stretch makespans, and background
// load fills them), so a pass averages over several.
const paperSeeds = 3

// paperParams is the calibrated Bronze Standard set-up with the grid's
// retry budget raised from 5 to 10 attempts. At 5, a job losing all five
// attempts to the 4 % failure rate ended about one protocol in a hundred
// with a failed enactment; at 10 that does not happen, and no other job's
// schedule changes.
func paperParams() bronze.Params {
	p := bronze.DefaultParams()
	p.Grid.Failures.MaxRetries = 10
	return p
}

// runPaperPass runs, for each seed, every configuration of bronze.Table1
// on every size, bronze.Repeats times, with Table1's per-cell seeds: 90
// enactments per seed, each on a freshly built grid. medians holds, per
// configuration, the per-size medians of each seed in turn.
func runPaperPass(seeds []uint64, sizes []int, rec *recorder) (*paperPass, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &paperPass{medians: make(map[string][]time.Duration), counters: make(map[string]float64)}
	h := fnv.New64a()
	for _, seed := range seeds {
		if err := p.protocol(seed, sizes, paperParams(), rec, h); err != nil {
			return nil, err
		}
	}
	p.gc = gcSince(ms)
	p.fp = h.Sum64()
	return p, nil
}

// protocol runs one seed's Table 1 protocol into the pass.
func (p *paperPass) protocol(seed uint64, sizes []int, params bronze.Params, rec *recorder, h io.Writer) error {
	for _, cfg := range bronze.Configurations() {
		for _, n := range sizes {
			times := make([]time.Duration, 0, bronze.Repeats)
			for rep := 0; rep < bronze.Repeats; rep++ {
				pp := params
				pp.Seed = seed + uint64(n) + uint64(rep)*7919
				pp.Grid.Seed = 0
				t := time.Now()
				var (
					app *bronze.App
					err error
				)
				within(rec, spanBuild, func() { app, err = bronze.Build(n, pp) })
				if err != nil {
					return err
				}
				p.build += time.Since(t)
				if rec != nil {
					if err := traceServices(app, rec); err != nil {
						return err
					}
				}
				t = time.Now()
				res, runErr, err := enact(app, cfg.Opts, rec)
				if err != nil {
					return fmt.Errorf("%s on %d pairs: %w", cfg.Name, n, err)
				}
				d := time.Since(t)
				p.enact += d
				p.enactMs = append(p.enactMs, float64(d)/1e6)
				if runErr != nil {
					if p.failed == 0 {
						p.firstErr = fmt.Errorf("seed %d, %s on %d pairs, repeat %d: %w", seed, cfg.Name, n, rep, runErr)
					}
					p.failed++
					continue
				}
				times = append(times, res.Makespan)
				p.makespans = append(p.makespans, res.Makespan)
				p.events += app.Eng.Fired()
				for _, jr := range app.Grid.Records() {
					p.attempts += jr.Attempts
				}
				if rec != nil {
					infraCounters(p.counters, []*grid.Grid{app.Grid}, app.Grid.Catalog(), nil)
				}
				fmt.Fprintf(h, "%d|%s|%d|%d|%d\n", seed, cfg.Name, n, rep, res.Makespan)
				p.last = app
			}
			p.medians[cfg.Name] = append(p.medians[cfg.Name], medianDuration(times))
		}
	}
	return nil
}

// enact runs one enactment to completion exactly as core.Enactor.Run
// does, stepping the engine itself so a recorder can time the loop.
// runErr is the enactment's own failure; err means it never finished.
func enact(app *bronze.App, opts core.Options, rec *recorder) (res *core.Result, runErr, err error) {
	en, err := core.New(app.Eng, app.WF, opts)
	if err != nil {
		return nil, nil, err
	}
	finished := false
	if err := en.Start(app.Inputs, func(r *core.Result, e error) {
		res, runErr, finished = r, e, true
	}); err != nil {
		return nil, nil, err
	}
	if rec != nil {
		rec.step(app.Eng, func() bool { return finished })
	} else {
		for !finished && app.Eng.Step() {
		}
	}
	if !finished {
		return nil, nil, core.ErrStalled
	}
	return res, runErr, nil
}

// traceServices rebinds the application's wrapper services to a timed
// submitter in front of the same grid, keeping each wrapper's descriptor,
// runtime model and output sizes — so the enactment, grouping included,
// is unchanged.
func traceServices(app *bronze.App, rec *recorder) error {
	sub := &tracedSubmitter{Submitter: app.Grid, rec: rec}
	for _, p := range app.WF.Processors() {
		w, ok := p.Service.(*services.Wrapper)
		if !ok {
			continue
		}
		outs := make(map[string]float64)
		for _, name := range w.Descriptor().OutputNames() {
			outs[name] = w.OutputSize(name)
		}
		nw, err := services.NewWrapper(sub, w.Descriptor(), w.Runtime(), outs)
		if err != nil {
			return err
		}
		p.Service = nw
	}
	return nil
}

// medianDuration is the median as bronze.Table1 takes it: the upper
// middle of the sorted values, exactly.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	return s[len(s)/2]
}

// runPaperTable1 is the paper-table1 workload: passes of the Table 1
// protocol over the given input sizes until the budget is spent.
func runPaperTable1(c runConfig, sizes []int) (*outcome, error) {
	o := newOutcome()
	seeds := derivedSeeds(c.seed, paperSeeds)
	var (
		setups, enacts, rates, tracedRates, enactMs []float64
		gcs                                         []gcDelta
		fps                                         []uint64
		last, traced                                *paperPass
		rec                                         *recorder
	)
	err := repeat(c.budget, minReps(c.trace), func(i int) error {
		last = nil
		runtime.GC()
		var r *recorder
		if c.trace && i%2 == 1 {
			r = newRecorder()
		}
		p, err := runPaperPass(seeds, sizes, r)
		if err != nil {
			return err
		}
		last = p
		fps = append(fps, p.fp)
		o.attempted += len(p.enactMs)
		o.failed += p.failed
		if p.firstErr != nil && i == 0 {
			fmt.Fprintf(c.log, "  failed enactment: %v\n", p.firstErr)
		}
		rate := float64(p.attempts) / p.enact.Seconds()
		if r != nil {
			traced, rec = p, r
			tracedRates = append(tracedRates, rate)
			return nil
		}
		setups = append(setups, p.build.Seconds())
		enacts = append(enacts, p.enact.Seconds())
		rates = append(rates, rate)
		enactMs = append(enactMs, p.enactMs...)
		gcs = append(gcs, p.gc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	checkDeterministic(o, fps)
	logSpread(c.log, "passes", enacts)
	// The paper's headline: all three optimizations beat none at the
	// largest input, at every seed.
	full, nop := last.medians["SP+DP+JG"], last.medians["NOP"]
	for k := len(sizes) - 1; k < len(full); k += len(sizes) {
		o.check(full[k] < nop[k], "SP+DP+JG median %v is not below NOP's %v at %d pairs", full[k], nop[k], sizes[len(sizes)-1])
	}
	o.endToEnd["setup_s"] = median(setups)
	o.endToEnd["ops_per_s"] = median(rates)
	o.endToEnd["latency_ms"] = median(enactMs)
	o.endToEnd["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	if !c.trace {
		return o, nil
	}

	l := o.perLayer
	for k, v := range traced.counters {
		l[k] = v
	}
	zeroLayers(l, "scenario.", "campaign.", "daemon.", "loadgen.")
	l["bronze.build_s"] = rec.total(spanBuild).total.Seconds()
	l["sim.events"] = float64(traced.events)
	l["sim.events_per_s"] = float64(traced.events) / median(enacts)
	l["sim.pending_peak"] = float64(rec.pendingPeak)
	l["sim.makespan_s"] = full[len(sizes)-1].Seconds() // the root seed's protocol
	l["sim.p95_tenant_s"] = p95Seconds(traced.makespans)
	reportSpans(o, rec)
	g := traced.last.Grid
	view := federation.GridView{Name: g.Name(), Load: g.Load()}
	l["federation.pick_ns"] = pickNs(federation.Ranked(), []federation.GridView{view})
	l["grid.catalog_plan_ns"] = planNs(g.Catalog(), []*grid.Grid{g})
	engineMicro(o)
	reportGC(o, gcs, traced.attempts)
	l["trace.overhead_pct"] = overheadPct(rates, tracedRates)
	if c.traceDir != "" {
		if err := rec.writeChrome(c.traceDir + ".trace.json"); err != nil {
			return nil, err
		}
	}
	return o, nil
}
