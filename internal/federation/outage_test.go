package federation

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// fourGridSpecs returns four identical quiet member grids (different
// seeds), so outage effects are attributable to the scenario alone.
func fourGridSpecs() []GridSpec {
	specs := make([]GridSpec, 4)
	for i := range specs {
		cfg := testGridConfig(8, 2*time.Second)
		cfg.Seed = uint64(40 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	return specs
}

// outageRun is one enacted outage scenario: the final record of every
// job plus the federation for record/telemetry inspection.
type outageRun struct {
	f      *Federation
	finals []*grid.JobRecord
}

// runOutageScenario submits 20 waves of three 60 s jobs (one wave per
// virtual minute) over a 4-grid federation and runs the engine dry. The
// waves matter: each submission synchronously grows its grid's UI
// backlog, so every backlog-aware policy spreads a wave across grids and
// the whole federation — dark-grid-to-be included — always has work in
// flight. Outages come either from the federation config or from
// manually scheduled SetDown/SetUp events.
func runOutageScenario(t *testing.T, policy Policy, rebroker int, outages []Outage, manual bool) outageRun {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Grids: fourGridSpecs(), Policy: policy, Rebroker: rebroker}
	if !manual {
		cfg.Outages = outages
	}
	f, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if manual {
		for _, o := range outages {
			idx := -1
			for i := 0; i < f.Size(); i++ {
				if f.GridName(i) == o.Grid {
					idx = i
				}
			}
			idx, o := idx, o
			eng.Schedule(sim.Time(o.At), func() { f.SetDown(idx) })
			if o.For > 0 {
				eng.Schedule(sim.Time(o.At+o.For), func() { f.SetUp(idx) })
			}
		}
	}
	const nJobs = 60 // 20 waves × 3 jobs
	finals := make([]*grid.JobRecord, nJobs)
	done := 0
	for i := 0; i < nJobs; i++ {
		i := i
		eng.Schedule(sim.Time(i/3)*time.Minute, func() {
			f.Submit(grid.JobSpec{Name: fmt.Sprintf("job%03d", i), Runtime: time.Minute},
				func(r *grid.JobRecord) { finals[i] = r; done++ })
		})
	}
	eng.Run()
	if done != nJobs {
		t.Fatalf("only %d of %d jobs reached a terminal state", done, nJobs)
	}
	return outageRun{f: f, finals: finals}
}

// span returns the latest completion instant across final records.
func (r outageRun) span() sim.Time {
	var last sim.Time
	for _, rec := range r.finals {
		if rec.Completed > last {
			last = rec.Completed
		}
	}
	return last
}

// fingerprint hashes every attempt's identity and schedule, the basis of
// the outage determinism check.
func (r outageRun) fingerprint() uint64 {
	h := fnv.New64a()
	for _, rec := range r.f.Records() {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%v\n", rec.Spec.Name, rec.Grid, rec.Submitted, rec.Completed, rec.Status, rec.Err)
	}
	return h.Sum64()
}

// TestGridOutageScenarios is the table-driven outage suite: a member grid
// goes dark mid-stream (by scheduled window or manual SetDown/SetUp) and
// the campaign of jobs must still complete via re-brokering, with no work
// routed to the dark grid during its window, in-flight casualties failing
// with ErrGridDown and moving elsewhere, and — when the window closes —
// the recovered grid rejoining the rotation.
func TestGridOutageScenarios(t *testing.T) {
	const (
		dark   = "g1"
		downAt = 290 * time.Second
		upAt   = 890 * time.Second // downAt + 600s window
	)
	window := []Outage{{Grid: dark, At: downAt, For: 600 * time.Second}}
	forever := []Outage{{Grid: dark, At: downAt}}
	cases := []struct {
		name       string
		policy     func() Policy // fresh instance per run (policies are stateful)
		rebroker   int
		outages    []Outage
		manual     bool
		wantRejoin bool
	}{
		{"window/round-robin", RoundRobin, 2, window, false, true},
		{"window/ranked", Ranked, 2, window, false, true},
		{"window/least-backlog", LeastBacklog, 2, window, false, true},
		{"window/manual-setdown", RoundRobin, 2, window, true, true},
		{"never-recovers/round-robin", RoundRobin, 2, forever, false, false},
		{"window/pinned-on-dark", func() Policy { return Pinned(1) }, 2, window, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := runOutageScenario(t, c.policy(), c.rebroker, c.outages, c.manual)

			upEnd := sim.Time(upAt)
			if c.outages[0].For == 0 {
				upEnd = 1 << 62 // never recovers: the window never closes
			}
			for _, rec := range run.finals {
				if rec.Status != grid.StatusCompleted {
					t.Errorf("job %s did not complete: %v (%v)", rec.Spec.Name, rec.Status, rec.Err)
				}
			}
			sawDarkPick, sawRejoin, sawCasualty := false, false, false
			for _, rec := range run.f.Records() {
				duringOutage := rec.Submitted >= sim.Time(downAt) && rec.Submitted < upEnd
				if duringOutage && rec.Grid == dark {
					sawDarkPick = true
				}
				if rec.Submitted >= upEnd && rec.Grid == dark {
					sawRejoin = true
				}
				if rec.Grid == dark && rec.Status == grid.StatusFailed && errors.Is(rec.Err, grid.ErrGridDown) {
					sawCasualty = true
				}
			}
			if sawDarkPick {
				t.Error("work was routed to the dark grid during its outage window")
			}
			if !sawCasualty {
				t.Error("no in-flight job on the dark grid failed with ErrGridDown (outage had no casualties to re-broker)")
			}
			darkIdx := -1
			for i := 0; i < run.f.Size(); i++ {
				if run.f.GridName(i) == dark {
					darkIdx = i
				}
			}
			if run.f.Telemetry(darkIdx).Rebrokered == 0 {
				t.Error("no job was re-brokered off the dark grid")
			}
			if c.wantRejoin && !sawRejoin {
				t.Error("recovered grid never rejoined the rotation")
			}
			if !c.wantRejoin && c.outages[0].For == 0 && sawRejoin {
				t.Error("a never-recovering grid received post-window work")
			}

			// Graceful degradation: the outage may stretch the span but
			// must not stall it — everything still completed above, and
			// the disturbed span stays within 2× the same policy's clean
			// (outage-free) span.
			clean := runOutageScenario(t, c.policy(), c.rebroker, nil, false)
			if run.span() < clean.span() {
				t.Errorf("outage span %v below the clean span %v — outage had no cost at all?", run.span(), clean.span())
			}
			if run.span() > 2*clean.span() {
				t.Errorf("outage span %v more than doubles the clean span %v", run.span(), clean.span())
			}
		})
	}
}

// TestOutageDeterminism pins the contended outage scenario bit-for-bit:
// same configuration, same seeds — same per-attempt schedule, grids and
// errors across runs.
func TestOutageDeterminism(t *testing.T) {
	window := []Outage{{Grid: "g1", At: 290 * time.Second, For: 600 * time.Second}}
	a := runOutageScenario(t, Ranked(), 2, window, false)
	b := runOutageScenario(t, Ranked(), 2, window, false)
	if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
		t.Fatalf("outage scenario not deterministic: %#x vs %#x", fa, fb)
	}
}

// TestRecoveryAgesTelemetry pins the aging contract: recovery resets the
// smoothed observations (EWMAs, stretch, their counters) while keeping
// the cumulative dispatch accounting, so a recovered grid re-characterizes
// from scratch instead of ranking on stale pre-outage numbers.
func TestRecoveryAgesTelemetry(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Name: "a", Config: testGridConfig(4, 2*time.Second)},
			{Name: "b", Config: testGridConfig(4, 2*time.Second)},
		},
		Policy: Pinned(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f.Submit(job(i), func(*grid.JobRecord) {})
	}
	eng.Run()
	before := f.Telemetry(1)
	if before.Observed == 0 || before.SubmitEWMA == 0 {
		t.Fatalf("no telemetry accumulated before the outage: %+v", before)
	}

	f.SetDown(1)
	if !f.Down(1) {
		t.Fatal("SetDown did not mark the grid dark")
	}
	f.SetUp(1)
	if f.Down(1) {
		t.Fatal("SetUp did not recover the grid")
	}
	after := f.Telemetry(1)
	if after.Observed != 0 || after.SubmitEWMA != 0 || after.QueueEWMA != 0 ||
		after.FetchObserved != 0 || after.XferStretch != 0 {
		t.Errorf("recovery did not age out the smoothed telemetry: %+v", after)
	}
	if after.Stretch() != 1 {
		t.Errorf("aged-out stretch = %v, want the no-observation default 1", after.Stretch())
	}
	if after.Dispatched != before.Dispatched {
		t.Errorf("recovery dropped the cumulative dispatch count: %d vs %d", after.Dispatched, before.Dispatched)
	}
	// SetUp on an up grid is a no-op and must not re-age anything.
	f.Submit(job(99), func(*grid.JobRecord) {})
	eng.Run()
	obs := f.Telemetry(1).Observed
	f.SetUp(1)
	if f.Telemetry(1).Observed != obs {
		t.Error("SetUp on an up grid aged its telemetry")
	}
}

// TestAllGridsDownFailsTerminally pins the fully-dark edge: with every
// member dark, a submission still terminates (failing with ErrGridDown
// after burning its re-broker budget) instead of hanging or panicking.
func TestAllGridsDownFailsTerminally(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: []GridSpec{
			{Name: "a", Config: testGridConfig(4, 2*time.Second)},
			{Name: "b", Config: testGridConfig(4, 2*time.Second)},
		},
		Policy:   Ranked(),
		Rebroker: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetDown(0)
	f.SetDown(1)
	var final *grid.JobRecord
	f.Submit(job(0), func(r *grid.JobRecord) { final = r })
	eng.Run()
	if final == nil {
		t.Fatal("submission on a fully-dark federation never terminated")
	}
	if final.Status != grid.StatusFailed || !errors.Is(final.Err, grid.ErrGridDown) {
		t.Fatalf("final = %v (%v), want a terminal ErrGridDown failure", final.Status, final.Err)
	}
}

// TestTouchingOutageWindowsAnyOrder pins the boundary scheduling: two
// windows where one starts exactly when the other ends are legal, and —
// regardless of their order in the config — the grid is dark through
// both, because the earlier window's recovery is scheduled before the
// later window's start at their shared instant.
func TestTouchingOutageWindowsAnyOrder(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		windows := []Outage{
			{Grid: "a", At: 10 * time.Minute, For: 10 * time.Minute},
			{Grid: "a", At: 20 * time.Minute, For: 10 * time.Minute},
		}
		if reversed {
			windows[0], windows[1] = windows[1], windows[0]
		}
		eng := sim.NewEngine()
		f, err := New(eng, Config{
			Grids:   []GridSpec{{Name: "a", Config: testGridConfig(4, 2*time.Second)}},
			Outages: windows,
		})
		if err != nil {
			t.Fatalf("reversed=%v: touching windows rejected: %v", reversed, err)
		}
		for _, probe := range []struct {
			at   time.Duration
			down bool
		}{{5 * time.Minute, false}, {15 * time.Minute, true}, {25 * time.Minute, true}, {35 * time.Minute, false}} {
			eng.RunUntil(sim.Time(probe.at))
			if f.Down(0) != probe.down {
				t.Errorf("reversed=%v: Down at %v = %v, want %v", reversed, probe.at, f.Down(0), probe.down)
			}
		}
	}
}

// TestPoliciesPreferUpExcludedOverDown pins the avoidance order on the
// bare Policy surface: with one up-but-excluded view and one dark view,
// every built-in policy must pick the up grid — downness is a harder
// constraint than re-broker exclusion.
func TestPoliciesPreferUpExcludedOverDown(t *testing.T) {
	views := []GridView{
		{Index: 0, Name: "up-excluded"},
		{Index: 1, Name: "dark", Down: true},
	}
	for _, p := range []Policy{RoundRobin(), LeastBacklog(), Ranked(), RankedLocalityBlind(), Pinned(1)} {
		if got := p.Pick(views, 0); got != 0 {
			t.Errorf("%s picked the dark grid %d over the up-but-excluded one", p.Name(), got)
		}
	}
}

// TestOutageConfigValidation pins the construction-time checks.
func TestOutageConfigValidation(t *testing.T) {
	specs := []GridSpec{{Name: "a", Config: testGridConfig(4, 2*time.Second)}}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: []Outage{{Grid: "ghost", At: time.Second}}}); err == nil {
		t.Error("outage naming an unknown grid was accepted")
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: []Outage{{Grid: "a", At: -time.Second}}}); err == nil {
		t.Error("outage with a negative start was accepted")
	}
	// Overlapping windows of one grid would let the earlier window's
	// unconditional recovery revive a grid the later one holds dark.
	overlapping := []Outage{
		{Grid: "a", At: time.Hour, For: 2 * time.Hour},
		{Grid: "a", At: 2 * time.Hour, For: 2 * time.Hour},
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: overlapping}); err == nil {
		t.Error("overlapping outage windows were accepted")
	}
	eclipsing := []Outage{
		{Grid: "a", At: time.Hour}, // never recovers
		{Grid: "a", At: 2 * time.Hour, For: time.Hour},
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: eclipsing}); err == nil {
		t.Error("a window inside a never-recovering outage was accepted")
	}
	disjoint := []Outage{
		{Grid: "a", At: time.Hour, For: time.Hour},
		{Grid: "a", At: 3 * time.Hour, For: time.Hour},
	}
	if _, err := New(sim.NewEngine(), Config{Grids: specs, Outages: disjoint}); err != nil {
		t.Errorf("disjoint windows of one grid were rejected: %v", err)
	}
}

// TestTenantRecordsPartition checks the per-tenant record lists against
// the federation's own under re-brokering: a job moved off a dark grid
// appears in its tenant's list once per attempt, in dispatch order; jobs
// sent through Federation.Submit belong to the "" tenant; the tenants'
// lists partition Federation.Records exactly, each being the global list
// filtered by tenant; and a caller's append cannot write into a list.
func TestTenantRecordsPartition(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids: fourGridSpecs(), Policy: RoundRobin(), Rebroker: 2,
		Outages: []Outage{{Grid: "g1", At: 290 * time.Second, For: 600 * time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []*Tenant{f.Tenant(""), f.Tenant("a"), f.Tenant("b")}
	finals := make(map[string]*grid.JobRecord)
	for i := 0; i < 60; i++ {
		i := i
		eng.Schedule(sim.Time(i/3)*time.Minute, func() {
			spec := grid.JobSpec{Name: fmt.Sprintf("job%03d", i), Runtime: time.Minute}
			done := func(r *grid.JobRecord) { finals[spec.Name] = r }
			if i%3 == 0 {
				f.Submit(spec, done)
			} else {
				tenants[i%3].Submit(spec, done)
			}
		})
	}
	eng.Run()

	owner := make(map[*grid.JobRecord]string)
	rebrokered := 0
	for _, tn := range tenants {
		var want []*grid.JobRecord
		for _, r := range f.Records() {
			if r.Tenant == tn.Name() {
				want = append(want, r)
			}
		}
		got := tn.Records()
		if len(got) != len(want) {
			t.Fatalf("tenant %q: %d records, the filter finds %d", tn.Name(), len(got), len(want))
		}
		attempts := make(map[string][]*grid.JobRecord)
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("tenant %q: record %d is job %s on %s, the filter has job %s on %s",
					tn.Name(), i, r.Spec.Name, r.Grid, want[i].Spec.Name, want[i].Grid)
			}
			if prev, ok := owner[r]; ok {
				t.Fatalf("record of job %s is in the lists of tenants %q and %q", r.Spec.Name, prev, tn.Name())
			}
			owner[r] = tn.Name()
			attempts[r.Spec.Name] = append(attempts[r.Spec.Name], r)
		}
		for name, recs := range attempts {
			if len(recs) > 1 {
				rebrokered++
			}
			for i := 1; i < len(recs); i++ {
				if recs[i-1].Status != grid.StatusFailed || recs[i].Submitted < recs[i-1].Completed {
					t.Fatalf("tenant %q: attempt %d of job %s is not after a failed attempt", tn.Name(), i, name)
				}
			}
			if last := recs[len(recs)-1]; finals[name] != last {
				t.Fatalf("tenant %q: job %s's last attempt is not the record its callback saw", tn.Name(), name)
			}
		}
		if len(got) == 0 {
			t.Fatalf("tenant %q has no records", tn.Name())
		}
		if cap(got) != len(got) {
			t.Fatalf("tenant %q: Records has spare capacity %d, a caller's append would write into it",
				tn.Name(), cap(got)-len(got))
		}
		_ = append(got, nil)
		if again := tn.Records(); len(again) != len(got) {
			t.Fatalf("tenant %q: a caller's append changed the list", tn.Name())
		}
	}
	if len(owner) != len(f.Records()) || len(finals) != 60 {
		t.Fatalf("tenant lists hold %d records of %d; %d of 60 jobs finished", len(owner), len(f.Records()), len(finals))
	}
	if rebrokered == 0 {
		t.Fatal("no job was re-brokered: the outage had no casualties")
	}
}
