package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// testGrid returns a small deterministic shared grid: one modest cluster,
// fixed middleware latencies, no background load, no failures — so
// fairness and accounting effects are exact.
func testGrid(nodes int) grid.Config {
	cfg := grid.IdealConfig(nodes)
	cfg.Overheads = grid.OverheadConfig{
		SubmitMean:   2 * time.Second,
		BrokerMean:   3 * time.Second,
		DispatchMean: 5 * time.Second,
	}
	cfg.BrokerSlots = 4
	return cfg
}

// oneGrid builds a shared grid the way a campaign sees one: a one-grid
// federation over cfg with local links, on a fresh engine.
func oneGrid(t testing.TB, cfg grid.Config) *federation.Federation {
	t.Helper()
	f, err := federation.New(sim.NewEngine(), federation.Config{
		Grids: []federation.GridSpec{{Config: cfg}},
		Links: grid.LocalLinks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runOneGrid enacts the tenants on a fresh one-grid federation over cfg
// and returns the report with the federation, for record assertions.
func runOneGrid(t testing.TB, cfg grid.Config, specs []TenantSpec, adm Admission) (*Report, *federation.Federation) {
	t.Helper()
	f := oneGrid(t, cfg)
	rep, err := RunSite(f, specs, adm)
	if err != nil {
		t.Fatal(err)
	}
	return rep, f
}

// sinkItems counts the items that reached a SyntheticChain tenant's sink:
// each is one output of the chain's last stage, registered in the
// federation catalog under that stage's executable name.
func sinkItems(f *federation.Federation, tenant string, stages int) int {
	prefix := fmt.Sprintf("gfn://%s.stage%02d/out.", tenant, stages-1)
	n := 0
	for _, name := range f.Catalog().Names() {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

func spdp() core.Options {
	return core.Options{DataParallelism: true, ServiceParallelism: true}
}

func TestCampaignSingleTenantMatchesSoloRun(t *testing.T) {
	// One tenant in a campaign behaves exactly like a solo enactor run on
	// an identical grid: same makespan, same output count.
	build := SyntheticChain(3, 5, 10*time.Second, 1)

	rep, f := runOneGrid(t, testGrid(16), []TenantSpec{{Name: "solo", Opts: spdp(), Build: build}}, Admission{})
	tr := rep.Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}

	th := oneGrid(t, testGrid(16)).Tenant("solo")
	wf, inputs, err := build(th)
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(th.Engine(), wf, spdp())
	if err != nil {
		t.Fatal(err)
	}
	res, err := en.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan != res.Makespan {
		t.Fatalf("campaign makespan %v != solo makespan %v", tr.Makespan, res.Makespan)
	}
	if got := sinkItems(f, "solo", 3); got != 5 {
		t.Fatalf("sink items = %d, want 5", got)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() []time.Duration {
		gc := testGrid(32)
		gc.Seed = 42
		var tenants []TenantSpec
		mixes := []core.Options{
			{},
			spdp(),
			{DataParallelism: true},
			{DataParallelism: true, ServiceParallelism: true, DataGroupSize: 3, DataGroupWindow: time.Minute},
		}
		for i, opts := range mixes {
			tenants = append(tenants, TenantSpec{
				Name:    []string{"t0", "t1", "t2", "t3"}[i],
				Arrival: time.Duration(i) * 30 * time.Second,
				Opts:    opts,
				Build:   SyntheticChain(3, 6, 20*time.Second, 2),
			})
		}
		rep, _ := runOneGrid(t, gc, tenants, Admission{})
		out := make([]time.Duration, len(rep.Tenants))
		for i, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
			out[i] = tr.Makespan
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tenant %d makespan not deterministic: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCampaignFairShare is the acceptance scenario: a steady tenant shares
// the grid with a burst-submitting tenant. With the fair-share gate the
// steady tenant's makespan grows by a bounded factor; under the
// tenancy-unaware strict FIFO it waits behind the whole burst.
func TestCampaignFairShare(t *testing.T) {
	steady := TenantSpec{
		Name:  "steady",
		Opts:  spdp(),
		Build: SyntheticChain(2, 4, 30*time.Second, 1),
	}
	burst := TenantSpec{
		Name:  "burst",
		Opts:  core.Options{DataParallelism: true},
		Build: SyntheticChain(1, 150, 30*time.Second, 1),
	}
	run := func(withBurst, strictFIFO bool) time.Duration {
		gc := testGrid(64)
		gc.StrictFIFOSubmit = strictFIFO
		tenants := []TenantSpec{steady}
		if withBurst {
			// The burst arrives first so its whole queue is already in
			// front of the UI when the steady tenant shows up.
			tenants = []TenantSpec{burst, steady}
		}
		rep, _ := runOneGrid(t, gc, tenants, Admission{})
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
			if tr.Name == "steady" {
				return tr.Makespan
			}
		}
		t.Fatal("steady tenant missing from report")
		return 0
	}

	alone := run(false, false)
	fair := run(true, false)
	fifo := run(true, true)

	if fair <= alone {
		t.Fatalf("contention had no effect: alone %v, shared %v", alone, fair)
	}
	// Bounded interference: round-robin costs the steady tenant at most
	// one competing submission slot per own submission, not the whole
	// burst. The bound is generous; the observed factor is ~1.1.
	if fair > 3*alone {
		t.Fatalf("fair-share makespan %v more than 3x the solo %v", fair, alone)
	}
	// The strict FIFO parks the steady tenant behind 150 burst
	// submissions; fair share must beat it clearly.
	if 2*fair >= fifo {
		t.Fatalf("fair share (%v) not clearly better than strict FIFO (%v)", fair, fifo)
	}
}

// TestCampaignTenantStatsIsolation checks the acceptance accounting
// properties: per-tenant overhead stats are disjoint and sum-consistent
// with the global statistics.
func TestCampaignTenantStatsIsolation(t *testing.T) {
	gc := testGrid(32)
	gc.Failures = grid.FailureConfig{Probability: 0.3, DetectDelay: 30 * time.Second, MaxRetries: 8}
	gc.Seed = 7
	rep, f := runOneGrid(t, gc, []TenantSpec{
		{Name: "alpha", Opts: spdp(), Build: SyntheticChain(2, 10, 20*time.Second, 1)},
		{Name: "beta", Opts: core.Options{DataParallelism: true}, Build: SyntheticChain(3, 6, 15*time.Second, 1)},
	}, Admission{})
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}

	// Disjoint: every record belongs to exactly one tenant, and the
	// tenants' record sets cover the global one.
	a, b := f.Tenant("alpha"), f.Tenant("beta")
	na, nb := len(a.Records()), len(b.Records())
	if na == 0 || nb == 0 {
		t.Fatal("a tenant submitted no jobs")
	}
	if na+nb != len(f.Records()) {
		t.Fatalf("tenant records %d+%d do not partition the %d global records", na, nb, len(f.Records()))
	}
	for _, r := range a.Records() {
		if r.Tenant != "alpha" {
			t.Fatalf("alpha's view contains record of tenant %q", r.Tenant)
		}
	}

	// Sum-consistent: counts add up exactly, means combine weighted.
	sa, sb, global := rep.Tenants[0].Overheads, rep.Tenants[1].Overheads, rep.Global
	if sa.Jobs+sb.Jobs != global.Jobs {
		t.Fatalf("completed jobs %d+%d != global %d", sa.Jobs, sb.Jobs, global.Jobs)
	}
	if sa.Failed+sb.Failed != global.Failed {
		t.Fatalf("failed %d+%d != global %d", sa.Failed, sb.Failed, global.Failed)
	}
	if sa.Resubmits+sb.Resubmits != global.Resubmits {
		t.Fatalf("resubmits %d+%d != global %d", sa.Resubmits, sb.Resubmits, global.Resubmits)
	}
	weighted := (float64(sa.Jobs)*sa.Mean.Seconds() + float64(sb.Jobs)*sb.Mean.Seconds()) / float64(global.Jobs)
	if diff := weighted - global.Mean.Seconds(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("weighted tenant means %.9fs != global mean %.9fs", weighted, global.Mean.Seconds())
	}
	if sa.Min < global.Min || sb.Min < global.Min || sa.Max > global.Max || sb.Max > global.Max {
		t.Fatal("tenant extrema outside global extrema")
	}
}

func TestCampaignArrivalWaves(t *testing.T) {
	arrival := 10 * time.Minute
	rep, f := runOneGrid(t, testGrid(16), []TenantSpec{
		{Name: "early", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
		{Name: "late", Arrival: arrival, Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
	}, Admission{})
	late := rep.Tenants[1]
	if late.Err != nil {
		t.Fatal(late.Err)
	}
	for _, r := range f.Tenant("late").Records() {
		if r.Submitted < sim.Time(arrival) {
			t.Fatalf("late tenant submitted at %v, before its arrival %v", r.Submitted, arrival)
		}
	}
	if late.Finish != late.Arrival+late.Makespan {
		t.Fatalf("finish %v != arrival %v + makespan %v", late.Finish, late.Arrival, late.Makespan)
	}
	// An isolated late arrival takes the same time as an early one.
	if early := rep.Tenants[0]; late.Makespan != early.Makespan {
		t.Fatalf("arrival offset changed an uncontended makespan: early %v, late %v", early.Makespan, late.Makespan)
	}
}

func TestCampaignAdaptiveGranularity(t *testing.T) {
	// A grid with brutal per-job overhead and plenty of nodes: batching
	// many small items per job is clearly optimal, so the feedback loop
	// must raise DataGroupSize above 1.
	gc := testGrid(64)
	gc.Overheads.SubmitMean = 60 * time.Second
	gc.Overheads.DispatchMean = 5 * time.Minute
	rep, f := runOneGrid(t, gc, []TenantSpec{{
		Name: "adaptive",
		Opts: core.Options{
			DataParallelism:    true,
			ServiceParallelism: true,
			DataGroupWindow:    2 * time.Minute,
		},
		Build: SyntheticChain(2, 40, 5*time.Second, 1),
		Adapt: &AdaptiveGranularity{Interval: 4 * time.Minute, MaxBatch: 16},
	}}, Admission{})
	tr := rep.Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if len(tr.Adaptations) == 0 {
		t.Fatal("adaptive tenant recorded no granularity decisions")
	}
	raised := false
	for _, a := range tr.Adaptations {
		if a.Batch > 16 {
			t.Fatalf("adaptation chose batch %d above MaxBatch 16", a.Batch)
		}
		if a.Batch > 1 {
			raised = true
		}
	}
	if !raised {
		t.Fatalf("overhead-dominated grid never drove the batch size above 1: %+v", tr.Adaptations)
	}
	if got := sinkItems(f, "adaptive", 2); got != 40 {
		t.Fatalf("sink items = %d, want 40", got)
	}
	// Batching must show up as fewer grid jobs than the unbatched 2×40.
	if jobs := len(f.Records()); jobs >= 80 {
		t.Fatalf("adaptive batching submitted %d jobs, want fewer than the 80 unbatched ones", jobs)
	}
}

func TestCampaignTenantFailureIsIsolated(t *testing.T) {
	// One tenant references a file that is not in the catalog: its run
	// fails, the other tenant is unaffected.
	rep, _ := runOneGrid(t, testGrid(16), []TenantSpec{
		{Name: "ok", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
		{Name: "doomed", Opts: spdp(), Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, _, err := SyntheticChain(1, 1, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// Point the source at a GFN that was never registered.
			return wf, map[string][]string{"src": {"gfn://doomed/missing"}}, nil
		}},
	}, Admission{})
	if rep.Tenants[0].Err != nil {
		t.Fatalf("healthy tenant failed: %v", rep.Tenants[0].Err)
	}
	if rep.Tenants[1].Err == nil {
		t.Fatal("doomed tenant reported no error")
	}
	if !strings.Contains(rep.Tenants[1].Err.Error(), "doomed") {
		t.Fatalf("error does not identify the tenant's processor: %v", rep.Tenants[1].Err)
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	ok := SyntheticChain(1, 1, time.Second, 1)
	cases := []struct {
		name    string
		tenants []TenantSpec
	}{
		{"no tenants", nil},
		{"empty name", []TenantSpec{{Name: "", Build: ok}}},
		{"duplicate", []TenantSpec{{Name: "x", Build: ok}, {Name: "x", Build: ok}}},
		{"nil build", []TenantSpec{{Name: "x"}}},
		{"negative arrival", []TenantSpec{{Name: "x", Build: ok, Arrival: -time.Second}}},
		{"bad adapt", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{}}}},
		{"negative slots", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{Interval: time.Minute, Slots: -1}}}},
		{"negative min batch", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{Interval: time.Minute, MinBatch: -1}}}},
		{"negative max batch", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{Interval: time.Minute, MaxBatch: -1}}}},
		{"min above max batch", []TenantSpec{{Name: "x", Build: ok, Adapt: &AdaptiveGranularity{Interval: time.Minute, MinBatch: 8, MaxBatch: 4}}}},
	}
	for _, c := range cases {
		if _, err := StartSite(oneGrid(t, testGrid(4)), c.tenants, Admission{}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestRunOnAdvancedEngine: RunSite must work on an engine whose clock has
// already moved — arrivals are relative to the campaign start.
func TestRunOnAdvancedEngine(t *testing.T) {
	f := oneGrid(t, testGrid(16))
	f.Engine().RunUntil(sim.Time(time.Hour))
	rep, err := RunSite(f, []TenantSpec{
		{Name: "later", Opts: spdp(), Build: SyntheticChain(2, 3, 10*time.Second, 1)},
	}, Admission{})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Tenants[0]
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if tr.Makespan <= 0 || tr.Finish != tr.Makespan {
		t.Fatalf("finish %v / makespan %v not relative to the campaign start", tr.Finish, tr.Makespan)
	}
}

// TestSetDataGroupSizeBeforeStart: pre-tuning a wrapper-backed enactor
// must not poison the run (a quiescence check before Start used to
// declare it done).
func TestSetDataGroupSizeBeforeStart(t *testing.T) {
	th := oneGrid(t, testGrid(16)).Tenant("pre")
	wf, inputs, err := SyntheticChain(2, 6, 10*time.Second, 1)(th)
	if err != nil {
		t.Fatal(err)
	}
	en, err := core.New(th.Engine(), wf, core.Options{
		DataParallelism:    true,
		ServiceParallelism: true,
		DataGroupWindow:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.SetDataGroupSize(3)
	res, err := en.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Outputs["sink"]); got != 6 {
		t.Fatalf("sink items = %d, want 6", got)
	}
	if len(th.Records()) >= 12 {
		t.Fatalf("pre-start batch size had no effect: %d jobs for 12 invocations", len(th.Records()))
	}
}

// TestCampaignFailedTenantStopsSubmitting: after a tenant's run fails,
// it must not keep feeding jobs into the shared grid.
func TestCampaignFailedTenantStopsSubmitting(t *testing.T) {
	rep, f := runOneGrid(t, testGrid(32), []TenantSpec{
		{Name: "doomed", Opts: spdp(), Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, _, err := SyntheticChain(4, 20, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// One poisoned item among 20 real ones: stage 1 fails on it.
			inputs := make([]string, 20)
			for i := range inputs {
				inputs[i] = fmt.Sprintf("gfn://doomed/input%04d", i)
			}
			inputs[0] = "gfn://doomed/missing"
			return wf, map[string][]string{"src": inputs}, nil
		}},
	}, Admission{})
	if rep.Tenants[0].Err == nil {
		t.Fatal("doomed tenant reported no error")
	}
	f.Engine().Run() // drain the shared engine past the failure
	// Stage 1 legitimately submits up to 20 jobs before the poisoned one
	// fails; the other three stages (60 more jobs) must not follow.
	if jobs := len(f.Records()); jobs > 25 {
		t.Fatalf("failed tenant kept submitting: %d jobs on the shared grid", jobs)
	}
}

// TestCampaignBatchedFailureStopsSubmitting: a pending DataGroupWindow
// flush timer of a failed tenant must not submit its held batch to the
// shared grid.
func TestCampaignBatchedFailureStopsSubmitting(t *testing.T) {
	rep, f := runOneGrid(t, testGrid(16), []TenantSpec{{
		Name: "batched",
		Opts: core.Options{
			DataParallelism:    true,
			ServiceParallelism: true,
			DataGroupSize:      3,
			DataGroupWindow:    6 * time.Hour,
		},
		Build: func(th Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, inputs, err := SyntheticChain(1, 5, 10*time.Second, 1)(th)
			if err != nil {
				return nil, nil, err
			}
			// Poison the first batch: its grid job fails on stage-in,
			// failing the tenant while 2 items sit on the window timer.
			inputs["src"][0] = "gfn://batched/missing"
			return wf, inputs, nil
		},
	}}, Admission{})
	if rep.Tenants[0].Err == nil {
		t.Fatal("poisoned batch did not fail the tenant")
	}
	before := len(f.Records())
	f.Engine().Run() // fire the pending window flush on the shared engine
	if after := len(f.Records()); after != before {
		t.Fatalf("failed tenant's window flush submitted %d more jobs", after-before)
	}
}

// TestCampaignStalledAdaptiveTenantTerminates: an adaptive tenant whose
// workflow stalls must not keep the engine alive through its own retuning
// ticks — RunSite has to return and report the stall.
func TestCampaignStalledAdaptiveTenantTerminates(t *testing.T) {
	stalling := func(th Handle) (*workflow.Workflow, map[string][]string, error) {
		eng := th.Engine()
		w := workflow.New("stall")
		w.AddSource("src")
		half := services.NewLocal(eng, "half", 1<<20, services.ConstantRuntime(time.Second),
			func(req services.Request) map[string]string {
				if req.Index[0] == 0 {
					return map[string]string{} // drops item 0
				}
				return map[string]string{"out": req.Inputs["in"]}
			})
		echo := func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"]}
		}
		w.AddService("half", half, []string{"in"}, []string{"out"})
		w.AddService("starved", services.NewLocal(eng, "starved", 1<<20, services.ConstantRuntime(time.Second), echo),
			[]string{"in"}, []string{"out"})
		w.AddService("gated", services.NewLocal(eng, "gated", 1<<20, services.ConstantRuntime(time.Second), echo),
			[]string{"in"}, []string{"out"})
		w.AddSink("s1")
		w.AddSink("s2")
		w.Connect("src", workflow.SourcePort, "half", "in")
		w.Connect("half", "out", "starved", "in")
		w.Connect("starved", "out", "s1", workflow.SinkPort)
		w.Connect("src", workflow.SourcePort, "gated", "in")
		w.Connect("gated", "out", "s2", workflow.SinkPort)
		w.Constrain("starved", "gated") // starved never drains: expects 2, gets 1
		return w, map[string][]string{"src": {"a", "b"}}, nil
	}
	rep, _ := runOneGrid(t, testGrid(8), []TenantSpec{{
		Name:  "stuck",
		Opts:  spdp(),
		Build: stalling,
		Adapt: &AdaptiveGranularity{Interval: time.Minute},
	}}, Admission{})
	if !errors.Is(rep.Tenants[0].Err, core.ErrStalled) {
		t.Fatalf("tenant err = %v, want ErrStalled", rep.Tenants[0].Err)
	}
}

func TestFinishedTenantReleasesHistory(t *testing.T) {
	// A terminal tenant pins none of its enactor's history: once it is
	// done, its workflow (and with it the trace, invocation arena and
	// provenance items) is garbage while the campaign's Execution or
	// Report is still held — the daemon's case, which keeps both for the
	// life of the process.
	tenant := func(wp *weak.Pointer[workflow.Workflow], build BuildFunc) []TenantSpec {
		return []TenantSpec{{Name: "t", Opts: spdp(), Build: func(h Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, inputs, err := build(h)
			*wp = weak.Make(wf)
			return wf, inputs, err
		}}}
	}
	chain := SyntheticChain(2, 4, 10*time.Second, 1)
	released := func(t *testing.T, wp weak.Pointer[workflow.Workflow]) {
		t.Helper()
		runtime.GC()
		if wp.Value() != nil {
			t.Fatal("a finished tenant's workflow is still reachable")
		}
	}

	// drive steps a StartSite campaign to completion and returns the
	// Execution, which the caller keeps reachable as the daemon does.
	drive := func(t *testing.T, specs []TenantSpec) *Execution {
		t.Helper()
		f := oneGrid(t, testGrid(8))
		x, err := StartSite(f, specs, Admission{})
		if err != nil {
			t.Fatal(err)
		}
		for !x.Done() && f.Engine().Step() {
		}
		if !x.Done() {
			t.Fatal("campaign did not finish")
		}
		return x
	}

	t.Run("StartSite", func(t *testing.T) {
		var wp weak.Pointer[workflow.Workflow]
		x := drive(t, tenant(&wp, chain))
		released(t, wp)
		if st := x.Tenants()[0]; !st.Finished || st.Err != nil {
			t.Fatalf("tenant status %+v, want finished without error", st)
		}
	})

	t.Run("RunSite", func(t *testing.T) {
		var wp weak.Pointer[workflow.Workflow]
		rep, f := runOneGrid(t, testGrid(8), tenant(&wp, chain), Admission{})
		released(t, wp)
		if tr := rep.Tenants[0]; tr.Err != nil || tr.Makespan <= 0 {
			t.Fatalf("tenant result %+v, want a makespan without error", tr)
		}
		if got := sinkItems(f, "t", 2); got != 4 {
			t.Fatalf("sink items = %d, want 4", got)
		}
	})

	t.Run("StartError", func(t *testing.T) {
		// Inputs missing the workflow's source: Start itself fails, and
		// the tenant is terminal without ever running.
		noInputs := func(h Handle) (*workflow.Workflow, map[string][]string, error) {
			wf, _, err := chain(h)
			return wf, map[string][]string{}, err
		}
		var wp weak.Pointer[workflow.Workflow]
		x := drive(t, tenant(&wp, noInputs))
		released(t, wp)
		if st := x.Tenants()[0]; !st.Finished || st.Err == nil {
			t.Fatalf("tenant status %+v, want finished with an error", st)
		}
	})
}
