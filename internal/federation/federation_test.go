package federation

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// testGridConfig returns a small deterministic member grid: one cluster,
// fixed middleware latencies, no background load, no failures — so policy
// routing decisions are exact.
func testGridConfig(nodes int, submitMean time.Duration) grid.Config {
	cfg := grid.IdealConfig(nodes)
	cfg.Overheads = grid.OverheadConfig{
		SubmitMean:   submitMean,
		BrokerMean:   3 * time.Second,
		DispatchMean: 5 * time.Second,
	}
	cfg.BrokerSlots = 4
	return cfg
}

func job(i int) grid.JobSpec {
	return grid.JobSpec{Name: fmt.Sprintf("job%03d", i), Runtime: 10 * time.Second}
}

// dispatched returns the per-grid dispatch counts.
func dispatched(f *Federation) []int {
	out := make([]int, f.Size())
	for i := range out {
		out[i] = f.Telemetry(i).Dispatched
	}
	return out
}

// TestBrokerPolicyRouting is the table-driven policy comparison. The
// spaced scenario is the skewed-UI-latency case: grid 0 has a 60s UI,
// grid 1 a 2s one, and jobs arrive far enough apart that every backlog
// signal has drained by the next submission. Least-backlog sees two idle
// grids every time and herds onto grid 0 (ties resolve to the lowest
// index); the ranked policy pays one probe to grid 0, learns its UI cost
// through the EWMA, and routes everything else to the fast grid. The
// burst scenario (all jobs at one instant) shows both load-aware policies
// spreading, because each submission synchronously grows the chosen
// grid's UI backlog.
func TestBrokerPolicyRouting(t *testing.T) {
	const jobs = 20
	cases := []struct {
		name   string
		policy Policy
		spaced bool // drain the federation between submissions
		want   []int
	}{
		{"round-robin/spaced", RoundRobin(), true, []int{10, 10}},
		{"least-backlog/spaced-herds-to-first", LeastBacklog(), true, []int{20, 0}},
		{"ranked/spaced-learns-fast-ui", Ranked(), true, []int{1, 19}},
		{"least-backlog/burst-spreads", LeastBacklog(), false, []int{10, 10}},
		{"ranked/burst-spreads", Ranked(), false, []int{10, 10}},
		{"pinned/burst", Pinned(1), false, []int{0, 20}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f, err := New(eng, Config{
				Grids: []GridSpec{
					{Name: "slow-ui", Config: testGridConfig(16, 60*time.Second)},
					{Name: "fast-ui", Config: testGridConfig(16, 2*time.Second)},
				},
				Policy: c.policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			for i := 0; i < jobs; i++ {
				f.Submit(job(i), func(r *grid.JobRecord) {
					if r.Status != grid.StatusCompleted {
						t.Errorf("job failed: %v", r.Err)
					}
					completed++
				})
				if c.spaced {
					eng.Run()
				}
			}
			eng.Run()
			if completed != jobs {
				t.Fatalf("completed %d of %d jobs", completed, jobs)
			}
			got := dispatched(f)
			for i, want := range c.want {
				if got[i] != want {
					t.Fatalf("dispatch counts %v, want %v", got, c.want)
				}
			}
			if st := f.Overheads(); st.Jobs != jobs {
				t.Fatalf("federation overheads cover %d jobs, want %d", st.Jobs, jobs)
			}
		})
	}
}

// TestRankedTelemetryTracksPhases: the EWMAs the ranked policy feeds on
// must reflect the configured middleware skew — the slow grid's submit
// EWMA has to sit near its 60s mean once observed.
func TestRankedTelemetryTracksPhases(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Name: "slow", Config: testGridConfig(8, 60*time.Second)},
			{Name: "fast", Config: testGridConfig(8, 2*time.Second)},
		},
		Policy: RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.Submit(job(i), func(*grid.JobRecord) {})
		eng.Run()
	}
	slow, fast := f.Telemetry(0), f.Telemetry(1)
	if slow.Observed != 5 || fast.Observed != 5 {
		t.Fatalf("observed %d/%d jobs, want 5/5", slow.Observed, fast.Observed)
	}
	if slow.SubmitEWMA <= fast.SubmitEWMA {
		t.Fatalf("slow grid submit EWMA %v not above fast grid's %v", slow.SubmitEWMA, fast.SubmitEWMA)
	}
	// IdealConfig draws are deterministic around the mean; the EWMA of an
	// unloaded 60s UI must land in the same decade, nowhere near 2s.
	if slow.SubmitEWMA < 20*time.Second {
		t.Fatalf("slow grid submit EWMA %v implausibly low for a 60s UI", slow.SubmitEWMA)
	}
}

// TestTelemetryObservedBeforeDone: the member grid's settle hook folds a
// completed job into the telemetry before the caller's callback runs,
// both when dispatch hands done straight to the grid (nothing to
// re-broker to) and when it wraps done to arm the re-broker.
func TestTelemetryObservedBeforeDone(t *testing.T) {
	for _, c := range []struct {
		name     string
		grids    int
		rebroker int
	}{
		{"one-grid/direct", 1, 0},
		{"two-grid/no-rebroker/direct", 2, 0},
		{"two-grid/rebroker/wrapped", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			specs := make([]GridSpec, c.grids)
			for i := range specs {
				specs[i] = GridSpec{Config: testGridConfig(4, 2*time.Second)}
			}
			f, err := New(eng, Config{Grids: specs, Policy: RoundRobin(), Rebroker: c.rebroker})
			if err != nil {
				t.Fatal(err)
			}
			const jobs = 4
			seen := 0
			for i := 0; i < jobs; i++ {
				f.Submit(job(i), func(r *grid.JobRecord) {
					seen++
					observed := 0
					for g := 0; g < f.Size(); g++ {
						observed += f.Telemetry(g).Observed
					}
					if r.Status != grid.StatusCompleted || observed != seen {
						t.Errorf("done #%d (%v): telemetry observed %d jobs, want %d", seen, r.Status, observed, seen)
					}
				})
			}
			eng.Run()
			if seen != jobs {
				t.Fatalf("done ran %d times, want %d", seen, jobs)
			}
		})
	}
}

// TestDispatchAllocsMatchBareGrid: a job the federation cannot re-broker
// costs no more allocations, from submit to settle, than the same job on
// a bare grid — dispatch hands the caller's callback to the member grid
// instead of wrapping it.
func TestDispatchAllocsMatchBareGrid(t *testing.T) {
	spec := job(0)
	done := func(*grid.JobRecord) {}
	cycle := func(eng *sim.Engine, sub func(grid.JobSpec, func(*grid.JobRecord)) *grid.JobRecord) float64 {
		// Warm the pools, arenas and queues first.
		for i := 0; i < 64; i++ {
			sub(spec, done)
			eng.Run()
		}
		return testing.AllocsPerRun(500, func() {
			sub(spec, done)
			eng.Run()
		})
	}
	bareEng := sim.NewEngine()
	bare := cycle(bareEng, grid.New(bareEng, testGridConfig(4, 2*time.Second)).Submit)
	fedEng := sim.NewEngine()
	f, err := New(fedEng, Config{Grids: []GridSpec{{Config: testGridConfig(4, 2*time.Second)}}})
	if err != nil {
		t.Fatal(err)
	}
	if fed := cycle(fedEng, f.Submit); fed > bare {
		t.Errorf("federated submit-to-settle allocates %.0f objects per job, bare grid %.0f", fed, bare)
	}
}

// TestRebrokerMovesTerminalFailures: a job that exhausts its retries on
// the pinned grid is transparently resubmitted to another grid and
// completes there; the caller's callback sees only the final record.
func TestRebrokerMovesTerminalFailures(t *testing.T) {
	broken := testGridConfig(4, 2*time.Second)
	broken.Failures = grid.FailureConfig{Probability: 1, DetectDelay: time.Second, MaxRetries: 2}
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Name: "broken", Config: broken},
			{Name: "healthy", Config: testGridConfig(4, 2*time.Second)},
		},
		Policy:   Pinned(0),
		Rebroker: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var final *grid.JobRecord
	calls := 0
	first := f.Submit(job(0), func(r *grid.JobRecord) {
		final = r
		calls++
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
	if final == nil || final.Status != grid.StatusCompleted {
		t.Fatalf("re-brokered job did not complete: %+v", final)
	}
	if final == first {
		t.Fatal("final record is the first attempt's — job never moved grids")
	}
	if !errors.Is(first.Err, grid.ErrTooManyFailures) {
		t.Fatalf("first attempt err = %v, want ErrTooManyFailures", first.Err)
	}
	if got := f.Telemetry(0).Rebrokered; got != 1 {
		t.Fatalf("broken grid Rebrokered = %d, want 1", got)
	}
	if got := f.Telemetry(1).Dispatched; got != 1 {
		t.Fatalf("healthy grid Dispatched = %d, want 1", got)
	}
	// Federation aggregates account both attempts: one failure on the
	// broken grid, one completion on the healthy one.
	st := f.Overheads()
	if st.Jobs != 1 || st.Failed != 1 {
		t.Fatalf("aggregates jobs=%d failed=%d, want 1/1", st.Jobs, st.Failed)
	}
}

// TestNoRebrokerOnMissingInput: a permanent failure (input absent from
// the shared catalog) is reported immediately — the file is missing on
// every grid, so moving the job is pointless.
func TestNoRebrokerOnMissingInput(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Config: testGridConfig(4, 2*time.Second)},
			{Config: testGridConfig(4, 2*time.Second)},
		},
		Policy:   Pinned(0),
		Rebroker: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := job(0)
	spec.Inputs = []string{"gfn://nowhere/missing"}
	var final *grid.JobRecord
	f.Submit(spec, func(r *grid.JobRecord) { final = r })
	eng.Run()
	if final == nil || final.Status != grid.StatusFailed {
		t.Fatalf("job did not fail: %+v", final)
	}
	if !errors.Is(final.Err, grid.ErrNoSuchFile) {
		t.Fatalf("err = %v, want ErrNoSuchFile", final.Err)
	}
	if got := f.Telemetry(0).Rebrokered; got != 0 {
		t.Fatalf("permanent failure was re-brokered %d times", got)
	}
	if got := f.Telemetry(1).Dispatched; got != 0 {
		t.Fatalf("second grid received %d jobs", got)
	}
}

// TestSharedCatalogSpansGrids: an output registered by a job on one grid
// must be stageable by a later job brokered to the other grid — the
// federated-replica-catalog property chained workflow stages rely on.
func TestSharedCatalogSpansGrids(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Config: testGridConfig(4, 2*time.Second)},
			{Config: testGridConfig(4, 2*time.Second)},
		},
		Policy: RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	first := job(0)
	first.Outputs = []grid.FileDecl{{Name: "gfn://fed/intermediate", SizeMB: 1}}
	var stage2 *grid.JobRecord
	f.Submit(first, func(r *grid.JobRecord) {
		if r.Status != grid.StatusCompleted {
			t.Errorf("producer failed: %v", r.Err)
			return
		}
		second := job(1)
		second.Inputs = []string{"gfn://fed/intermediate"}
		f.Submit(second, func(r2 *grid.JobRecord) { stage2 = r2 })
	})
	eng.Run()
	if stage2 == nil || stage2.Status != grid.StatusCompleted {
		t.Fatalf("consumer on the other grid did not complete: %+v", stage2)
	}
	if got := dispatched(f); got[0] != 1 || got[1] != 1 {
		t.Fatalf("stages not split across grids: %v", got)
	}
}

// TestFederationStatsPartition: per-grid stats and per-tenant stats must
// both partition the federation-level aggregates exactly.
func TestFederationStatsPartition(t *testing.T) {
	flaky := testGridConfig(8, 2*time.Second)
	flaky.Failures = grid.FailureConfig{Probability: 0.3, DetectDelay: 10 * time.Second, MaxRetries: 4}
	flaky.Seed = 11
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Name: "a", Config: flaky},
			{Name: "b", Config: testGridConfig(8, 5*time.Second)},
		},
		Policy: RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []*Tenant{f.Tenant("alpha"), f.Tenant("beta"), f.Tenant("gamma")}
	for i := 0; i < 30; i++ {
		tenants[i%3].Submit(job(i), func(*grid.JobRecord) {})
	}
	eng.Run()

	global := f.Overheads()
	if global.Jobs+global.Failed != 30 {
		t.Fatalf("terminal jobs %d+%d, want 30", global.Jobs, global.Failed)
	}
	var gridJobs, gridFailed, tenantJobs, tenantFailed, tenantResub int
	for i := 0; i < f.Size(); i++ {
		st := f.Grid(i).Overheads()
		gridJobs += st.Jobs
		gridFailed += st.Failed
	}
	for _, tn := range tenants {
		st := tn.Overheads()
		tenantJobs += st.Jobs
		tenantFailed += st.Failed
		tenantResub += st.Resubmits
	}
	if gridJobs != global.Jobs || gridFailed != global.Failed {
		t.Fatalf("per-grid stats %d/%d do not partition global %d/%d",
			gridJobs, gridFailed, global.Jobs, global.Failed)
	}
	if tenantJobs != global.Jobs || tenantFailed != global.Failed || tenantResub != global.Resubmits {
		t.Fatalf("per-tenant stats %d/%d/%d do not partition global %d/%d/%d",
			tenantJobs, tenantFailed, tenantResub, global.Jobs, global.Failed, global.Resubmits)
	}
	if len(f.Records()) != 30 {
		t.Fatalf("federation records %d, want 30", len(f.Records()))
	}
	// Tenant handles are memoized — identity stands in for tenancy.
	if f.Tenant("alpha") != tenants[0] {
		t.Fatal("tenant handle not memoized")
	}
}

// TestFederationDeterminism: identical configs and seeds must reproduce
// identical dispatch schedules and makespans.
func TestFederationDeterminism(t *testing.T) {
	run := func() ([]int, sim.Time) {
		eng := sim.NewEngine()
		flaky := testGridConfig(6, 20*time.Second)
		flaky.Failures = grid.FailureConfig{Probability: 0.2, DetectDelay: 10 * time.Second, MaxRetries: 5}
		f, err := New(eng, Config{
			Grids: []GridSpec{
				{Config: flaky},
				{Config: testGridConfig(12, 5*time.Second)},
				{Config: testGridConfig(3, 2*time.Second)},
			},
			Rebroker: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			f.Submit(job(i), func(*grid.JobRecord) {})
		}
		eng.Run()
		return dispatched(f), eng.Now()
	}
	d1, m1 := run()
	d2, m2 := run()
	if m1 != m2 {
		t.Fatalf("makespan not deterministic: %v vs %v", m1, m2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dispatch schedule not deterministic: %v vs %v", d1, d2)
		}
	}
}

func TestFederationConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	ok := GridSpec{Config: testGridConfig(2, time.Second)}
	named := GridSpec{Name: "x", Config: ok.Config}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no grids", Config{}},
		{"duplicate names", Config{Grids: []GridSpec{{Name: "x", Config: ok.Config}, {Name: "x", Config: ok.Config}}}},
		{"clusterless member", Config{Grids: []GridSpec{{Name: "x"}}}},
		{"negative rebroker", Config{Grids: []GridSpec{ok}, Rebroker: -1}},
		{"alpha out of range", Config{Grids: []GridSpec{ok}, EWMAAlpha: 1.5}},
		{"negative WAN bandwidth", Config{Grids: []GridSpec{ok}, Links: &grid.Links{WAN: grid.Link{MBps: -1}}}},
		{"negative WAN latency", Config{Grids: []GridSpec{ok}, Links: &grid.Links{WAN: grid.Link{MBps: 1, Latency: -time.Second}}}},
		{"negative intra-grid bandwidth", Config{Grids: []GridSpec{ok}, Links: &grid.Links{IntraGrid: grid.Link{MBps: -1}}}},
		{"negative intra-grid latency", Config{Grids: []GridSpec{ok}, Links: &grid.Links{IntraGrid: grid.Link{Latency: -time.Second}}}},
		{"negative pair bandwidth", Config{Grids: []GridSpec{ok}, Links: &grid.Links{Pairs: map[grid.GridPair]grid.Link{{From: "a", To: "b"}: {MBps: -1}}}}},
		{"negative pair latency", Config{Grids: []GridSpec{ok}, Links: &grid.Links{Pairs: map[grid.GridPair]grid.Link{{From: "a", To: "b"}: {MBps: 1, Latency: -time.Second}}}}},
		// A window ending past the largest sim.Time wrapped At+For
		// negative and panicked the engine with a negative delay.
		{"outage ending past the largest instant", Config{Grids: []GridSpec{named},
			Outages: []Outage{{Grid: "x", At: 2500000 * time.Hour, For: 2500000 * time.Hour}}}},
		{"storage outage ending past the largest instant", Config{Grids: []GridSpec{named},
			Outages: []Outage{{Grid: "x", At: time.Hour, For: math.MaxInt64, Storage: true}}}},
		// The same wrap used to slip an overlap past the overlap check.
		{"wrapped outage overlapping a later one", Config{Grids: []GridSpec{named},
			Outages: []Outage{{Grid: "x", At: time.Hour, For: math.MaxInt64}, {Grid: "x", At: 2 * time.Hour, For: time.Hour}}}},
	}
	for _, c := range cases {
		if _, err := New(eng, c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// Auto-named grids are accepted and distinct.
	f, err := New(eng, Config{Grids: []GridSpec{ok, ok}})
	if err != nil {
		t.Fatal(err)
	}
	if f.GridName(0) == f.GridName(1) {
		t.Fatalf("auto-assigned names collide: %s", f.GridName(0))
	}
}
