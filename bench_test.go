// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the real experiment in virtual time;
// simulated quantities are reported as custom metrics (sim_s = simulated
// seconds of execution time), so `go test -bench . -benchmem` reproduces
// the paper's numbers alongside the harness cost.
package moteur

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bronze"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// BenchmarkTable1 regenerates Table 1: one sub-benchmark per
// (configuration, input size) cell; sim_s reports the simulated execution
// time of that cell.
func BenchmarkTable1(b *testing.B) {
	for _, cfg := range bronze.Configurations() {
		for _, size := range bronze.PaperSizes {
			name := fmt.Sprintf("%s/%d", cfg.Name, size)
			b.Run(name, func(b *testing.B) {
				var last time.Duration
				for i := 0; i < b.N; i++ {
					p := bronze.DefaultParams()
					p.Seed = 1 + uint64(size)
					res, _, err := bronze.Run(size, cfg.Opts, p)
					if err != nil {
						b.Fatal(err)
					}
					last = res.Makespan
				}
				b.ReportMetric(last.Seconds(), "sim_s")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the full experiment plus the
// per-configuration regressions; the NOP slope (s per data set) is
// reported as a representative metric.
func BenchmarkTable2(b *testing.B) {
	var slope, intercept float64
	for i := 0; i < b.N; i++ {
		rows, err := bronze.Table1(bronze.PaperSizes, bronze.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		regs, err := bronze.Table2(rows)
		if err != nil {
			b.Fatal(err)
		}
		slope, intercept = regs[0].Line.Slope, regs[0].Line.Intercept
	}
	b.ReportMetric(slope, "NOP_slope_s")
	b.ReportMetric(intercept, "NOP_yint_s")
}

// BenchmarkFigure10 regenerates the Figure 10 series (Table1's rows) over
// five input sizes; sim_s reports the SP+DP+JG execution time at the largest size.
func BenchmarkFigure10(b *testing.B) {
	sizes := []int{12, 36, 66, 96, 126}
	var last time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := bronze.Table1(sizes, bronze.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Times[len(sizes)-1]
	}
	b.ReportMetric(last.Seconds(), "sim_s")
}

// BenchmarkRatios regenerates the Sec. 5.2–5.3 analysis; the headline
// speed-up (SP+DP+JG vs NOP at 126 pairs; paper ≈ 9) is the metric.
func BenchmarkRatios(b *testing.B) {
	var headline float64
	for i := 0; i < b.N; i++ {
		rows, err := bronze.Table1(bronze.PaperSizes, bronze.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		r, err := bronze.ComputeRatios(rows)
		if err != nil {
			b.Fatal(err)
		}
		headline = r.FullvsNOP[len(r.FullvsNOP)-1]
	}
	b.ReportMetric(headline, "speedup")
}

// chainWorkflow builds the Fig. 1 three-service pipeline used by the
// diagram figures.
func chainWorkflow(eng *sim.Engine, durs [3][3]time.Duration) *workflow.Workflow {
	w := workflow.New("fig1")
	w.AddSource("src")
	for i := 0; i < 3; i++ {
		i := i
		name := fmt.Sprintf("P%d", i+1)
		m := func(req services.Request) time.Duration { return durs[i][req.Index[0]] }
		echo := func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"]}
		}
		w.AddService(name, services.NewLocal(eng, name, 1<<20, m, echo),
			[]string{"in"}, []string{"out"})
	}
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P1", "in")
	w.Connect("P1", "out", "P2", "in")
	w.Connect("P2", "out", "P3", "in")
	w.Connect("P3", "out", "sink", workflow.SinkPort)
	return w
}

func benchDiagram(b *testing.B, durs [3][3]time.Duration, opts core.Options) {
	var makespan time.Duration
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		w := chainWorkflow(eng, durs)
		e, err := core.New(eng, w, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"src": {"0", "1", "2"}})
		if err != nil {
			b.Fatal(err)
		}
		diagram.Render(res.Trace, []string{"P1", "P2", "P3"}, 10*time.Second)
		makespan = res.Makespan
	}
	b.ReportMetric(makespan.Seconds(), "sim_s")
}

func constDurs() [3][3]time.Duration {
	var d [3][3]time.Duration
	for i := range d {
		for j := range d[i] {
			d[i][j] = 10 * time.Second
		}
	}
	return d
}

// BenchmarkFigure4 regenerates the data-parallel execution diagram
// (3 stages × 3 items, DP on: sim_s = 30, three stage rows).
func BenchmarkFigure4(b *testing.B) {
	benchDiagram(b, constDurs(), core.Options{DataParallelism: true})
}

// BenchmarkFigure5 regenerates the service-parallel (pipelined) execution
// diagram (sim_s = (nD+nW−1)·T = 50).
func BenchmarkFigure5(b *testing.B) {
	benchDiagram(b, constDurs(), core.Options{ServiceParallelism: true})
}

// BenchmarkFigure6 regenerates the variable-time comparison: DP only
// (left, sim_s = 60) versus DP+SP (right, sim_s = 50).
func BenchmarkFigure6(b *testing.B) {
	durs := constDurs()
	durs[0][0] = 20 * time.Second
	durs[1][1] = 30 * time.Second
	b.Run("left-DP", func(b *testing.B) {
		benchDiagram(b, durs, core.Options{DataParallelism: true})
	})
	b.Run("right-DP+SP", func(b *testing.B) {
		benchDiagram(b, durs, core.Options{DataParallelism: true, ServiceParallelism: true})
	})
}

// BenchmarkModelEquations measures the closed-form model (Sec. 3.5.3) on a
// large duration matrix; the SP recurrence dominates.
func BenchmarkModelEquations(b *testing.B) {
	r := rng.New(1)
	m := make(model.Matrix, 10)
	for i := range m {
		m[i] = make([]time.Duration, 1000)
		for j := range m[i] {
			m[i][j] = time.Duration(r.Intn(1000)) * time.Second
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Sequential(m)
		model.DP(m)
		model.SP(m)
		model.DSP(m)
	}
}

// BenchmarkEnactorVsModel validates (and times) the enactor against the
// four equations on an ideal substrate, as in Sec. 3.5.4.
func BenchmarkEnactorVsModel(b *testing.B) {
	const nW, nD = 5, 20
	m := model.Constant(nW, nD, 10*time.Second)
	cases := []struct {
		opts core.Options
		want time.Duration
	}{
		{core.Options{}, model.Sequential(m)},
		{core.Options{DataParallelism: true}, model.DP(m)},
		{core.Options{ServiceParallelism: true}, model.SP(m)},
		{core.Options{DataParallelism: true, ServiceParallelism: true}, model.DSP(m)},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			eng := sim.NewEngine()
			w := workflow.New("chain")
			w.AddSource("src")
			prev := "src"
			prevPort := workflow.SourcePort
			for s := 0; s < nW; s++ {
				name := fmt.Sprintf("P%d", s)
				echo := func(req services.Request) map[string]string {
					return map[string]string{"out": req.Inputs["in"]}
				}
				w.AddService(name, services.NewLocal(eng, name, 1<<20,
					services.ConstantRuntime(10*time.Second), echo),
					[]string{"in"}, []string{"out"})
				w.Connect(prev, prevPort, name, "in")
				prev, prevPort = name, "out"
			}
			w.AddSink("sink")
			w.Connect(prev, prevPort, "sink", workflow.SinkPort)
			e, err := core.New(eng, w, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]string, nD)
			for j := range inputs {
				inputs[j] = fmt.Sprintf("D%d", j)
			}
			res, err := e.Run(map[string][]string{"src": inputs})
			if err != nil {
				b.Fatal(err)
			}
			if res.Makespan != c.want {
				b.Fatalf("%s: enactor %v, model %v", c.opts, res.Makespan, c.want)
			}
		}
	}
}

// reuseEcho returns an in→out echo that reuses one response map per
// service: the enactor consumes Response.Outputs synchronously inside the
// completion callback, so the harness itself adds no per-invocation
// allocations to the measurement.
func reuseEcho() func(services.Request) map[string]string {
	out := make(map[string]string, 1)
	return func(req services.Request) map[string]string {
		out["out"] = req.Inputs["in"]
		return out
	}
}

// scaleChain builds a linear pipeline of nW echo services on an ideal
// (local, uncontended) substrate, so the benchmark measures pure enactor
// overhead rather than grid simulation.
func scaleChain(eng *sim.Engine, nW int) *workflow.Workflow {
	w := workflow.New("scale-chain")
	w.AddSource("src")
	prev, prevPort := "src", workflow.SourcePort
	for s := 0; s < nW; s++ {
		name := fmt.Sprintf("P%02d", s)
		w.AddService(name, services.NewLocal(eng, name, 1<<20,
			services.ConstantRuntime(10*time.Second), reuseEcho()),
			[]string{"in"}, []string{"out"})
		w.Connect(prev, prevPort, name, "in")
		prev, prevPort = name, "out"
	}
	w.AddSink("sink")
	w.Connect(prev, prevPort, "sink", workflow.SinkPort)
	return w
}

// scaleFanout builds a one-level fan-out of width parallel echo services
// between one source and one sink.
func scaleFanout(eng *sim.Engine, width int) *workflow.Workflow {
	w := workflow.New("scale-fanout")
	w.AddSource("src")
	w.AddSink("sink")
	for s := 0; s < width; s++ {
		name := fmt.Sprintf("F%02d", s)
		w.AddService(name, services.NewLocal(eng, name, 1<<20,
			services.ConstantRuntime(10*time.Second), reuseEcho()),
			[]string{"in"}, []string{"out"})
		w.Connect("src", workflow.SourcePort, name, "in")
		w.Connect(name, "out", "sink", workflow.SinkPort)
	}
	return w
}

// BenchmarkEnactorScale measures the wall-clock cost of the enactor
// control loop as the data-set size grows: chain and fan-out topologies of
// 64 services at nD ∈ {100, 1000, 5000} items under SP+DP. The simulated
// makespan is a closed-form constant per topology, so the benchmark doubles
// as a determinism check while isolating enactor (not grid) overhead.
func BenchmarkEnactorScale(b *testing.B) {
	const nW = 64
	opts := core.Options{DataParallelism: true, ServiceParallelism: true}
	shapes := []struct {
		name  string
		build func(*sim.Engine) *workflow.Workflow
		want  time.Duration
	}{
		{"chain", func(eng *sim.Engine) *workflow.Workflow { return scaleChain(eng, nW) },
			time.Duration(nW) * 10 * time.Second},
		{"fanout", func(eng *sim.Engine) *workflow.Workflow { return scaleFanout(eng, nW) },
			10 * time.Second},
	}
	for _, shape := range shapes {
		for _, nD := range []int{100, 1000, 5000} {
			inputs := make([]string, nD)
			for j := range inputs {
				inputs[j] = fmt.Sprintf("D%d", j)
			}
			b.Run(fmt.Sprintf("%s/nD=%d", shape.name, nD), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng := sim.NewEngine()
					w := shape.build(eng)
					e, err := core.New(eng, w, opts)
					if err != nil {
						b.Fatal(err)
					}
					res, err := e.Run(map[string][]string{"src": inputs})
					if err != nil {
						b.Fatal(err)
					}
					if res.Makespan != shape.want {
						b.Fatalf("makespan %v, want %v", res.Makespan, shape.want)
					}
				}
			})
		}
	}
}

// BenchmarkCampaignScale measures the multi-tenant campaign layer at
// scale: 32 tenants, each enacting a 16-service wrapper chain over nD=100
// items, all contending for one shared DefaultConfig grid (a one-grid
// federation with local links) through the fair-share gate, with a heterogeneous optimization mix (SP+DP, SP+DP+JG,
// DP, batched SP+DP) and staggered arrival waves. Per-tenant makespans are
// captured on the first iteration and asserted identical on every
// subsequent one, so the benchmark doubles as a campaign determinism
// check; sim_s reports the campaign span and jobs the global submission
// count.
func BenchmarkCampaignScale(b *testing.B) {
	const nTenants, nServices, nD = 32, 16, 100
	mixes := []core.Options{
		{ServiceParallelism: true, DataParallelism: true},
		{ServiceParallelism: true, DataParallelism: true, JobGrouping: true},
		{DataParallelism: true},
		{ServiceParallelism: true, DataParallelism: true,
			DataGroupSize: 8, DataGroupWindow: 2 * time.Minute},
	}
	tenants := make([]campaign.TenantSpec, nTenants)
	for i := range tenants {
		tenants[i] = campaign.TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * time.Minute,
			Opts:    mixes[i%len(mixes)],
			Build:   campaign.SyntheticChain(nServices, nD, 2*time.Minute, 5),
		}
	}
	var first []time.Duration
	var span time.Duration
	var jobs int
	for i := 0; i < b.N; i++ {
		f, err := federation.New(sim.NewEngine(), federation.Config{
			Grids: []federation.GridSpec{{Config: grid.DefaultConfig()}},
			Links: grid.LocalLinks(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := campaign.RunSite(f, tenants, campaign.Admission{})
		if err != nil {
			b.Fatal(err)
		}
		makespans := make([]time.Duration, len(rep.Tenants))
		for j, tr := range rep.Tenants {
			if tr.Err != nil {
				b.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
			makespans[j] = tr.Makespan
		}
		if first == nil {
			first = makespans
		} else {
			for j := range makespans {
				if makespans[j] != first[j] {
					b.Fatalf("tenant %d makespan not deterministic: %v vs %v",
						j, makespans[j], first[j])
				}
			}
		}
		span = rep.Makespan
		jobs = rep.Global.Jobs + rep.Global.Failed
	}
	b.ReportMetric(span.Seconds(), "sim_s")
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkGridThroughput measures the raw event rate of the grid
// simulator: jobs completed per wall second under burst submission.
func BenchmarkGridThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cfg := grid.DefaultConfig()
		cfg.BackgroundHorizon = 6 * time.Hour
		g := grid.New(eng, cfg)
		done := 0
		for j := 0; j < 500; j++ {
			g.Submit(grid.JobSpec{Runtime: 5 * time.Minute}, func(*grid.JobRecord) { done++ })
		}
		for done < 500 && eng.Step() {
		}
		if done != 500 {
			b.Fatal("jobs lost")
		}
	}
}

// BenchmarkAblationSubmitLatency sweeps the serialized submission latency,
// the mechanism behind the residual slope under full data parallelism
// (DESIGN.md ablation): sim_s reports the SP+DP makespan at 66 pairs.
func BenchmarkAblationSubmitLatency(b *testing.B) {
	for _, submit := range []time.Duration{5 * time.Second, 20 * time.Second, 60 * time.Second} {
		b.Run(submit.String(), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				p := bronze.DefaultParams()
				p.Grid.Overheads.SubmitMean = submit
				res, _, err := bronze.Run(66,
					core.Options{DataParallelism: true, ServiceParallelism: true}, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan
			}
			b.ReportMetric(last.Seconds(), "sim_s")
		})
	}
}

// BenchmarkAblationVariability removes the grid's stochastic sources one
// group at a time: with all variability off, service parallelism on top of
// data parallelism approaches the theoretical SSDP = 1 (constant-time
// hypothesis); with production-grade variance it pays off — the paper's
// central empirical observation, reproduced mechanistically.
func BenchmarkAblationVariability(b *testing.B) {
	variants := []struct {
		name string
		mod  func(*bronze.Params)
	}{
		{"production", func(*bronze.Params) {}},
		{"no-failures", func(p *bronze.Params) {
			p.Grid.Failures.Probability = 0
		}},
		{"deterministic", func(p *bronze.Params) {
			p.Grid.Failures.Probability = 0
			p.Grid.Overheads.SubmitSD = 0
			p.Grid.Overheads.BrokerSD = 0
			p.Grid.Overheads.DispatchSD = 0
			for i := range p.Grid.Clusters {
				p.Grid.Clusters[i].MinSpeed = 1
				p.Grid.Clusters[i].MaxSpeed = 1
				p.Grid.Clusters[i].BackgroundMeanIAT = 0 // background off
			}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				p := bronze.DefaultParams()
				v.mod(&p)
				dp, _, err := bronze.Run(36, core.Options{DataParallelism: true}, p)
				if err != nil {
					b.Fatal(err)
				}
				dsp, _, err := bronze.Run(36,
					core.Options{DataParallelism: true, ServiceParallelism: true}, p)
				if err != nil {
					b.Fatal(err)
				}
				gain = metrics.SpeedUp(dp.Makespan, dsp.Makespan)
			}
			b.ReportMetric(gain, "SP_gain_on_DP")
		})
	}
}

// BenchmarkAblationGrouping compares job counts and makespans with and
// without the grouping rewrite (Sec. 5.3).
func BenchmarkAblationGrouping(b *testing.B) {
	for _, jg := range []bool{false, true} {
		b.Run(fmt.Sprintf("jg=%v", jg), func(b *testing.B) {
			var last time.Duration
			var jobs int
			for i := 0; i < b.N; i++ {
				res, app, err := bronze.Run(36, core.Options{
					DataParallelism: true, ServiceParallelism: true, JobGrouping: jg,
				}, bronze.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan
				jobs = len(app.Grid.Records())
			}
			b.ReportMetric(last.Seconds(), "sim_s")
			b.ReportMetric(float64(jobs), "jobs")
		})
	}
}

// BenchmarkAblationDataGrouping sweeps the future-work optimization of
// Sec. 5.4 — batching several invocations of one service into a single
// job. Small batches pay more overhead; large batches forfeit data
// parallelism; the sweet spot depends on the grid load (sim_s at 36
// pairs, SP+DP).
func BenchmarkAblationDataGrouping(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				res, _, err := bronze.Run(36, core.Options{
					DataParallelism:    true,
					ServiceParallelism: true,
					DataGroupSize:      k,
					DataGroupWindow:    time.Minute,
				}, bronze.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan
			}
			b.ReportMetric(last.Seconds(), "sim_s")
		})
	}
}

// BenchmarkScenario runs every library scenario (scenarios/*.json) as one
// sub-benchmark named after the spec, so a benchmark world is a spec
// file rather than hand-assembled Go. Each iteration compiles the spec
// on a fresh engine and runs it to completion; the benchmark
// fails on any tenant error or when an iteration's scenario.Fingerprint
// differs from the first, so it doubles as a determinism check. sim_s
// reports the campaign span, jobs the terminal job count, wan_mb the
// WAN bytes actually moved, wan_wait_s the channel-wait time the
// contended fabric induced, evicted_mb the bytes drained under storage
// capacity pressure and repairs the replica copies the replication floor
// commissioned.
func BenchmarkScenario(b *testing.B) {
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range paths {
		// TestScenarioLibraryLoads keeps every file named after its spec.
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		b.Run(name, func(b *testing.B) { benchScenario(b, path) })
	}
}

// benchScenario is one BenchmarkScenario sub-benchmark. The timed
// region is what a run costs — compiling the world and enacting it; the
// determinism check runs with the timer stopped, so its formatting does
// not count against allocation budgets.
func benchScenario(b *testing.B, path string) {
	spec, err := scenario.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	var first uint64
	var rep *campaign.Report
	var w *scenario.World
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w, err = scenario.Compile(sim.NewEngine(), spec); err != nil {
			b.Fatal(err)
		}
		if rep, err = w.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				b.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
		}
		fp := scenario.Fingerprint(rep, w.Fed)
		if i == 0 {
			first = fp
		} else if fp != first {
			b.Fatalf("iteration %d not deterministic: fingerprint %#x, want %#x", i, fp, first)
		}
		b.StartTimer()
	}
	var wanMB, evictedMB float64
	var wanWait time.Duration
	for i := 0; i < w.Fed.Size(); i++ {
		wanMB += w.Fed.Grid(i).RemoteInMB()
		wanWait += w.Fed.Grid(i).WANWait()
	}
	for _, st := range w.Fed.Catalog().SEStats() {
		evictedMB += st.EvictedMB
	}
	b.ReportMetric(rep.Makespan.Seconds(), "sim_s")
	b.ReportMetric(float64(rep.Global.Jobs+rep.Global.Failed), "jobs")
	b.ReportMetric(wanMB, "wan_mb")
	b.ReportMetric(wanWait.Seconds(), "wan_wait_s")
	b.ReportMetric(evictedMB, "evicted_mb")
	b.ReportMetric(float64(w.Fed.Repairs()), "repairs")
}
