package grid

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// wanGrid returns a quiet named grid with a WAN link model priced so a
// 30 MB cross-grid fetch costs exactly 20 s (5 s latency + 30/2 MBps).
func wanGrid(eng *sim.Engine, nodes int) *Grid {
	cfg := quiet(nodes)
	cfg.Name = "g0"
	g := New(eng, cfg)
	g.Catalog().SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	return g
}

// submitMany submits n identical remote-input jobs at once and runs the
// engine to completion, returning the records in submission order.
func submitMany(t *testing.T, eng *sim.Engine, g *Grid, n int) []*JobRecord {
	t.Helper()
	recs := make([]*JobRecord, n)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		g.Submit(JobSpec{Name: fmt.Sprintf("j%d", i), Inputs: []string{"gfn://far"}, Runtime: time.Second},
			func(r *JobRecord) { recs[i] = r; done++ })
	}
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d jobs", done, n)
	}
	for i, r := range recs {
		if r.Status != StatusCompleted {
			t.Fatalf("job %d: status %v (%v)", i, r.Status, r.Err)
		}
	}
	return recs
}

// TestContendedChannelSerializes pins the fabric's core behaviour: three
// concurrent 20 s fetches over a capacity-1 (g1 → g0) channel are granted
// FIFO and finish serialized, each later job's WANWait growing by exactly
// the residual hold time in front of it — and the whole schedule is
// bit-identical across runs.
func TestContendedChannelSerializes(t *testing.T) {
	run := func() ([]*JobRecord, *Grid) {
		eng := sim.NewEngine()
		g := wanGrid(eng, 4)
		g.Catalog().SetFabric(NewFabric(eng, 1))
		g.Catalog().RegisterAt("gfn://far", 30, Site{Grid: "g1", Cluster: "ce00"})
		return submitMany(t, eng, g, 3), g
	}
	recs, g := run()

	// Serialized UI (2 s) and fixed broker (3 s) + dispatch (5 s) put the
	// three stage-ins at 10 s, 12 s, 14 s. The 20 s fetches then serialize
	// on the capacity-1 channel: grants at 10, 30, 50.
	wantInputDone := []sim.Time{
		30 * time.Second, // 10 + 20, no wait
		50 * time.Second, // arrived 12, granted 30, +20
		70 * time.Second, // arrived 14, granted 50, +20
	}
	wantWait := []time.Duration{0, 18 * time.Second, 36 * time.Second}
	for i, r := range recs {
		if r.InputDone != wantInputDone[i] {
			t.Errorf("job %d InputDone = %v, want %v", i, r.InputDone, wantInputDone[i])
		}
		if r.WANWait != wantWait[i] {
			t.Errorf("job %d WANWait = %v, want %v", i, r.WANWait, wantWait[i])
		}
		if r.RemoteFetch != 20*time.Second || r.WANFetch != 20*time.Second {
			t.Errorf("job %d RemoteFetch/WANFetch = %v/%v, want the nominal 20s for both (the only leg is cross-grid)",
				i, r.RemoteFetch, r.WANFetch)
		}
	}
	if got, want := g.WANWait(), 54*time.Second; got != want {
		t.Errorf("Grid.WANWait = %v, want %v", got, want)
	}
	st := g.ClusterStats()[0]
	if st.WANWait != 54*time.Second || st.RemoteFetches != 3 || st.RemoteInMB != 90 {
		t.Errorf("cluster stat = wait %v / %d fetches / %v MB, want 54s / 3 / 90", st.WANWait, st.RemoteFetches, st.RemoteInMB)
	}
	ps := g.Catalog().Fabric().PairStats()
	if len(ps) != 1 || ps[0].From != "g1" || ps[0].To != "g0" {
		t.Fatalf("PairStats = %+v, want one (g1, g0) channel", ps)
	}
	if ps[0].Capacity != 1 || ps[0].Grants != 3 || ps[0].PeakWaiting != 2 {
		t.Errorf("channel stats = %+v, want capacity 1, grants 3, peak waiting 2", ps[0])
	}

	// Bit-identical across runs.
	again, _ := run()
	for i := range recs {
		if recs[i].InputDone != again[i].InputDone || recs[i].WANWait != again[i].WANWait ||
			recs[i].Completed != again[i].Completed {
			t.Fatalf("run not deterministic at job %d: %+v vs %+v", i, recs[i], again[i])
		}
	}
}

// TestUncontendedFabricMatchesDelayModel pins the decay property the
// locality golden rests on: with enough streams that no fetch ever
// queues, every per-job timestamp matches the PR 4 pure-delay model (no
// fabric attached) exactly, and WANWait stays zero everywhere.
func TestUncontendedFabricMatchesDelayModel(t *testing.T) {
	run := func(fabric bool) []*JobRecord {
		eng := sim.NewEngine()
		g := wanGrid(eng, 4)
		if fabric {
			g.Catalog().SetFabric(NewFabric(eng, 3))
		}
		g.Catalog().RegisterAt("gfn://far", 30, Site{Grid: "g1", Cluster: "ce00"})
		return submitMany(t, eng, g, 3)
	}
	delay, contended := run(false), run(true)
	for i := range delay {
		d, c := delay[i], contended[i]
		if d.Submitted != c.Submitted || d.Accepted != c.Accepted || d.Matched != c.Matched ||
			d.Started != c.Started || d.InputDone != c.InputDone || d.Completed != c.Completed {
			t.Errorf("job %d timestamps diverge: delay %+v vs fabric %+v", i, d, c)
		}
		if c.WANWait != 0 {
			t.Errorf("job %d WANWait = %v on an uncontended fabric, want 0", i, c.WANWait)
		}
		if d.RemoteFetch != c.RemoteFetch {
			t.Errorf("job %d RemoteFetch diverges: %v vs %v", i, d.RemoteFetch, c.RemoteFetch)
		}
	}
}

// TestWANWaitResetsPerAttempt pins the last-attempt contract of
// JobRecord.WANWait: a resubmitted job starts its wait accounting over,
// so an attempt that queued and then failed does not inflate the final
// record (and through it the broker's observed/nominal stretch
// telemetry).
func TestWANWaitResetsPerAttempt(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quiet(4)
	cfg.Name = "g0"
	// Every compute fails: the job retries once and fails terminally, so
	// the final record describes the second attempt.
	cfg.Failures = FailureConfig{Probability: 1, DetectDelay: 10 * time.Second, MaxRetries: 2}
	g := New(eng, cfg)
	g.Catalog().SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	fab := NewFabric(eng, 1)
	g.Catalog().SetFabric(fab)
	g.Catalog().RegisterAt("gfn://far", 30, Site{Grid: "g1", Cluster: "ce00"})
	// Hold the channel so only the first attempt (stage-in at 10 s) has
	// to queue; by the retry the channel is long free.
	fab.Channel("g1", "g0").Use(30*time.Second, nil)

	var final *JobRecord
	g.Submit(JobSpec{Name: "j", Inputs: []string{"gfn://far"}, Runtime: time.Second},
		func(r *JobRecord) { final = r })
	eng.Run()
	if final == nil || final.Status != StatusFailed || final.Attempts != 2 {
		t.Fatalf("want a 2-attempt terminal failure, got %+v", final)
	}
	if final.WANWait != 0 {
		t.Errorf("final WANWait = %v, want 0 (the first attempt's 20s queue must not leak into the last attempt)", final.WANWait)
	}
	if final.RemoteFetch != 20*time.Second || final.WANFetch != 20*time.Second {
		t.Errorf("final RemoteFetch/WANFetch = %v/%v, want the nominal 20s for both", final.RemoteFetch, final.WANFetch)
	}
	// The cluster accounting, by contrast, is cumulative across attempts.
	if got, want := g.WANWait(), 20*time.Second; got != want {
		t.Errorf("Grid.WANWait = %v, want %v (the wait actually paid)", got, want)
	}
}

// TestIntraGridLegsBypassWANChannels pins the WAN/intra-grid split under
// a fabric: a same-grid remote leg is a pure delay (it never occupies a
// channel) and is excluded from the WANFetch nominal, so intra-grid
// congestion can neither stall WAN transfers nor dilute the stretch
// signal the broker builds from WANFetch.
func TestIntraGridLegsBypassWANChannels(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quiet(4)
	cfg.Name = "g0"
	g := New(eng, cfg)
	g.Catalog().SetLinks(&Links{
		IntraGrid: Link{MBps: 1, Latency: 10 * time.Second}, // 40 s for 30 MB
		WAN:       Link{MBps: 2, Latency: 5 * time.Second},  // 20 s for 30 MB
	})
	fab := NewFabric(eng, 1)
	g.Catalog().SetFabric(fab)
	g.Catalog().RegisterAt("gfn://near", 30, Site{Grid: "g0", Cluster: "elsewhere"})
	g.Catalog().RegisterAt("gfn://far", 30, Site{Grid: "g1", Cluster: "ce00"})

	var final *JobRecord
	g.Submit(JobSpec{Name: "j", Inputs: []string{"gfn://near", "gfn://far"}, Runtime: time.Second},
		func(r *JobRecord) { final = r })
	eng.Run()
	if final == nil || final.Status != StatusCompleted {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.RemoteFetch != 60*time.Second {
		t.Errorf("RemoteFetch = %v, want the 60s nominal of both legs", final.RemoteFetch)
	}
	if final.WANFetch != 20*time.Second {
		t.Errorf("WANFetch = %v, want the 20s cross-grid leg only", final.WANFetch)
	}
	if final.WANWait != 0 {
		t.Errorf("WANWait = %v, want 0 (nothing contended)", final.WANWait)
	}
	ps := fab.PairStats()
	if len(ps) != 1 || ps[0].From != "g1" || ps[0].Grants != 1 {
		t.Errorf("PairStats = %+v, want exactly one grant on the (g1, g0) channel and no (g0, g0) channel", ps)
	}
}

// TestDarkSettlementCountsInClusterStats pins the outage accounting: an
// attempt whose compute succeeds while the grid is dark is settled as an
// ErrGridDown failure, and that failure shows in the executing cluster's
// counters like any other (the record-level and cluster-level failure
// views must not diverge).
func TestDarkSettlementCountsInClusterStats(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(2))
	var final *JobRecord
	g.Submit(JobSpec{Name: "j", Runtime: 10 * time.Second}, func(r *JobRecord) { final = r })
	// Take the grid dark mid-compute: started at 10 s (2+3+5 overheads),
	// settling at 20 s.
	eng.Schedule(15*time.Second, func() { g.SetDown(true) })
	eng.Run()
	if final == nil || final.Status != StatusFailed || final.Err != ErrGridDown {
		t.Fatalf("want a terminal ErrGridDown failure, got %+v", final)
	}
	st := g.ClusterStats()[0]
	if st.ForegroundJobs != 1 || st.ForegroundFailed != 1 {
		t.Errorf("cluster stats = %d jobs / %d failed, want 1/1 (dark settlement must be counted)",
			st.ForegroundJobs, st.ForegroundFailed)
	}
}

// TestDarkUIFailureCountsOneAttempt pins the attempt accounting of the
// earliest casualty path: a submission that dies at the dark UI (before
// matchmaking ever runs) still records one attempt, so the derived
// resubmission count (Attempts−1 per terminal job) stays at zero instead
// of going negative.
func TestDarkUIFailureCountsOneAttempt(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(2))
	var final *JobRecord
	g.Submit(JobSpec{Name: "j", Runtime: time.Second}, func(r *JobRecord) { final = r })
	g.SetDown(true) // dark before the UI latency elapses
	eng.Run()
	if final == nil || final.Status != StatusFailed || final.Err != ErrGridDown {
		t.Fatalf("want a terminal ErrGridDown failure at the UI, got %+v", final)
	}
	if final.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (the dark-UI settlement is an attempt)", final.Attempts)
	}
	if st := g.Overheads(); st.Resubmits != 0 || st.Failed != 1 {
		t.Errorf("Overheads = resubmits %d / failed %d, want 0 / 1", st.Resubmits, st.Failed)
	}
}

// TestStagePlanLegs pins the per-source-grid leg breakdown: inputs
// resolve into one leg per source grid in lexical order, aggregating
// sizes, files and serialized fetch time, while Plan leaves the
// breakdown unmaterialized.
func TestStagePlanLegs(t *testing.T) {
	c := NewCatalog()
	c.SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	here := Site{Grid: "g0", Cluster: "ce00"}
	c.RegisterAt("a", 10, Site{Grid: "g2", Cluster: "x"})
	c.RegisterAt("b", 30, Site{Grid: "g1", Cluster: "x"})
	c.RegisterAt("c", 20, Site{Grid: "g1", Cluster: "y"})
	c.RegisterAt("d", 4, here)

	var p StagePlan
	c.planInto(&p, []string{"a", "b", "c", "d"}, here, true, false)
	if p.Missing != "" {
		t.Fatalf("unexpected missing %q", p.Missing)
	}
	if len(p.Remote) != 2 {
		t.Fatalf("legs = %+v, want two (g1, g2)", p.Remote)
	}
	g1, g2 := p.Remote[0], p.Remote[1]
	if g1.FromGrid != "g1" || g1.Files != 2 || g1.SizeMB != 50 || g1.Time != 10*time.Second+25*time.Second {
		t.Errorf("g1 leg = %+v, want 2 files, 50 MB, 35s", g1)
	}
	if g2.FromGrid != "g2" || g2.Files != 1 || g2.SizeMB != 10 || g2.Time != 5*time.Second+5*time.Second {
		t.Errorf("g2 leg = %+v, want 1 file, 10 MB, 10s", g2)
	}
	if g1.Time+g2.Time != p.RemoteTime {
		t.Errorf("legs sum to %v, RemoteTime %v", g1.Time+g2.Time, p.RemoteTime)
	}
	if agg := c.Plan([]string{"a", "b", "c", "d"}, here); agg.Remote != nil {
		t.Errorf("Plan materialized legs: %+v (hot path must stay allocation-free)", agg.Remote)
	} else if agg.RemoteTime != p.RemoteTime || agg.RemoteMB != p.RemoteMB {
		t.Errorf("Plan aggregates diverge from the detailed plan: %+v vs %+v", agg, p)
	}
}

// TestMultiLegFetchWalksChannelsInOrder pins the contended multi-source
// stage-in: a job pulling from two grids holds each pair channel in
// lexical source order, so a competitor on only one of the pairs queues
// exactly behind that leg.
func TestMultiLegFetchWalksChannelsInOrder(t *testing.T) {
	eng := sim.NewEngine()
	g := wanGrid(eng, 4)
	g.Catalog().SetFabric(NewFabric(eng, 1))
	g.Catalog().RegisterAt("gfn://one", 30, Site{Grid: "g1", Cluster: "x"}) // 20 s leg
	g.Catalog().RegisterAt("gfn://two", 10, Site{Grid: "g2", Cluster: "x"}) // 10 s leg

	var both, single *JobRecord
	g.Submit(JobSpec{Name: "both", Inputs: []string{"gfn://two", "gfn://one"}, Runtime: time.Second},
		func(r *JobRecord) { both = r })
	g.Submit(JobSpec{Name: "single", Inputs: []string{"gfn://one"}, Runtime: time.Second},
		func(r *JobRecord) { single = r })
	eng.Run()
	if both == nil || single == nil || both.Status != StatusCompleted || single.Status != StatusCompleted {
		t.Fatalf("jobs did not complete: %+v / %+v", both, single)
	}
	// "both" stages at 10 s: g1 leg 10→30, then g2 leg 30→40 (legs in
	// lexical order although gfn://two was declared first).
	if both.InputDone != 40*time.Second || both.WANWait != 0 {
		t.Errorf("both: InputDone %v WANWait %v, want 40s and 0", both.InputDone, both.WANWait)
	}
	// "single" stages at 12 s and needs only the g1 channel, which frees
	// at 30 s: waited 18 s, fetched by 50 s.
	if single.InputDone != 50*time.Second || single.WANWait != 18*time.Second {
		t.Errorf("single: InputDone %v WANWait %v, want 50s and 18s", single.InputDone, single.WANWait)
	}
}
