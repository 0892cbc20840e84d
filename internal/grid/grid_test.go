package grid

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// quiet returns a small deterministic grid with no background load and no
// failures, so tests can reason about exact behaviour.
func quiet(nodes int) Config {
	cfg := IdealConfig(nodes)
	cfg.Overheads = OverheadConfig{
		SubmitMean: 2 * time.Second, SubmitSD: 0,
		BrokerMean: 3 * time.Second, BrokerSD: 0,
		DispatchMean: 5 * time.Second, DispatchSD: 0,
		TransferLatency: 0,
	}
	return cfg
}

func submitOne(t *testing.T, eng *sim.Engine, g *Grid, spec JobSpec) *JobRecord {
	t.Helper()
	var final *JobRecord
	g.Submit(spec, func(r *JobRecord) { final = r })
	eng.Run()
	if final == nil {
		t.Fatal("job never completed")
	}
	return final
}

func TestJobLifecycleTimestamps(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(4))
	rec := submitOne(t, eng, g, JobSpec{Name: "j", Runtime: 10 * time.Second})

	if rec.Status != StatusCompleted {
		t.Fatalf("status = %v, want completed", rec.Status)
	}
	// submit 2s + broker 3s + dispatch 5s + runtime 10s = 20s.
	if got, want := rec.Completed, sim.Time(20*time.Second); got != want {
		t.Fatalf("completed at %v, want %v", got, want)
	}
	if rec.Submitted != 0 || rec.Accepted != sim.Time(2*time.Second) ||
		rec.Matched != sim.Time(5*time.Second) || rec.Started != sim.Time(5*time.Second) ||
		rec.InputDone != sim.Time(10*time.Second) {
		t.Fatalf("phase timestamps wrong: %+v", rec)
	}
	if rec.Overhead() != 10*time.Second {
		t.Fatalf("Overhead() = %v, want 10s", rec.Overhead())
	}
	if rec.Makespan() != 20*time.Second {
		t.Fatalf("Makespan() = %v, want 20s", rec.Makespan())
	}
	if rec.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", rec.Attempts)
	}
}

func TestSubmissionSerialized(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(10))
	var accepted []sim.Time
	for i := 0; i < 3; i++ {
		rec := g.Submit(JobSpec{Runtime: time.Second}, func(*JobRecord) {})
		_ = rec
	}
	eng.Run()
	for _, r := range g.Records() {
		accepted = append(accepted, r.Accepted)
	}
	// UI is serialized with 2s latency: acceptance at 2, 4, 6 seconds.
	want := []sim.Time{2 * time.Second, 4 * time.Second, 6 * time.Second}
	for i := range want {
		if accepted[i] != want[i] {
			t.Fatalf("accepted[%d] = %v, want %v (UI must serialize submissions)", i, accepted[i], want[i])
		}
	}
}

func TestOutputsRegisteredOnCompletion(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(2))
	rec := submitOne(t, eng, g, JobSpec{
		Name:    "producer",
		Runtime: time.Second,
		Outputs: []FileDecl{{Name: "gfn://out1", SizeMB: 7.8}, {Name: "gfn://out2", SizeMB: 1.2}},
	})
	if rec.Status != StatusCompleted {
		t.Fatalf("status = %v", rec.Status)
	}
	size, ok := g.Catalog().Lookup("gfn://out1")
	if !ok || size != 7.8 {
		t.Fatalf("output not registered: size=%v ok=%v", size, ok)
	}
	if !g.Catalog().Has("gfn://out2") {
		t.Fatal("second output not registered")
	}
}

func TestMissingInputFailsJob(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(2))
	rec := submitOne(t, eng, g, JobSpec{
		Name:    "consumer",
		Runtime: time.Second,
		Inputs:  []string{"gfn://absent"},
	})
	if rec.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", rec.Status)
	}
	if !errors.Is(rec.Err, ErrNoSuchFile) {
		t.Fatalf("err = %v, want ErrNoSuchFile", rec.Err)
	}
	var fe *FileError
	if !errors.As(rec.Err, &fe) || fe.File != "gfn://absent" {
		t.Fatalf("error does not identify the missing file: %v", rec.Err)
	}
}

func TestInputTransferTime(t *testing.T) {
	cfg := quiet(2)
	cfg.Clusters[0].TransferMBps = 10
	cfg.Overheads.TransferLatency = time.Second
	eng := sim.NewEngine()
	g := New(eng, cfg)
	g.Catalog().Register("gfn://img", 100) // 100 MB at 10 MB/s = 10s + 1s latency
	rec := submitOne(t, eng, g, JobSpec{Name: "j", Inputs: []string{"gfn://img"}, Runtime: time.Second})
	// submit 2 + broker 3 + dispatch 5 + transfer 11 = 21s overhead.
	if got, want := rec.Overhead(), 21*time.Second; got != want {
		t.Fatalf("overhead = %v, want %v", got, want)
	}
}

func TestNodeContention(t *testing.T) {
	// 1 node, 2 jobs of 10s: second job queues behind the first.
	eng := sim.NewEngine()
	g := New(eng, quiet(1))
	done := 0
	for i := 0; i < 2; i++ {
		g.Submit(JobSpec{Runtime: 10 * time.Second}, func(*JobRecord) { done++ })
	}
	eng.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	r0, r1 := g.Records()[0], g.Records()[1]
	if r1.Started < r0.Completed {
		t.Fatalf("second job started at %v before first completed at %v on a 1-node grid",
			r1.Started, r0.Completed)
	}
}

func TestParallelismAcrossNodes(t *testing.T) {
	// 8 nodes, 8 jobs: all run roughly concurrently; makespan far below 8x serial.
	eng := sim.NewEngine()
	g := New(eng, quiet(8))
	for i := 0; i < 8; i++ {
		g.Submit(JobSpec{Runtime: 100 * time.Second}, func(*JobRecord) {})
	}
	eng.Run()
	// Serialized submission adds 2s per job; everything else overlaps.
	// Upper bound: last submit at 16s + 3 + 5 + 100 = 124s.
	if eng.Now() > sim.Time(125*time.Second) {
		t.Fatalf("8 jobs on 8 nodes took %v, want ≤ ~124s", eng.Now())
	}
}

func TestHeterogeneousNodeSpeeds(t *testing.T) {
	cfg := quiet(16)
	cfg.Clusters[0].MinSpeed = 0.5
	cfg.Clusters[0].MaxSpeed = 2.0
	eng := sim.NewEngine()
	g := New(eng, cfg)
	var spans []time.Duration
	for i := 0; i < 16; i++ {
		g.Submit(JobSpec{Runtime: 100 * time.Second}, func(r *JobRecord) {
			spans = append(spans, time.Duration(r.Completed-r.InputDone))
		})
	}
	eng.Run()
	min, max := spans[0], spans[0]
	for _, s := range spans {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min < 50*time.Second || max > 200*time.Second {
		t.Fatalf("compute spans outside speed bounds: min=%v max=%v", min, max)
	}
	if max == min {
		t.Fatal("node speeds not heterogeneous: all compute spans equal")
	}
}

func TestFailureResubmission(t *testing.T) {
	cfg := quiet(4)
	cfg.Failures = FailureConfig{Probability: 0.5, DetectDelay: time.Minute, MaxRetries: 50}
	cfg.Seed = 3
	eng := sim.NewEngine()
	g := New(eng, cfg)
	completed := 0
	for i := 0; i < 40; i++ {
		g.Submit(JobSpec{Runtime: 10 * time.Second}, func(r *JobRecord) {
			if r.Status == StatusCompleted {
				completed++
			}
		})
	}
	eng.Run()
	if completed != 40 {
		t.Fatalf("completed = %d, want 40 (resubmission should be transparent)", completed)
	}
	st := g.Overheads()
	if st.Resubmits == 0 {
		t.Fatal("p=0.5 produced zero resubmissions across 40 jobs")
	}
}

func TestFailureExhaustsRetries(t *testing.T) {
	cfg := quiet(4)
	cfg.Failures = FailureConfig{Probability: 1.0, DetectDelay: time.Second, MaxRetries: 3}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	rec := submitOne(t, eng, g, JobSpec{Name: "doomed", Runtime: time.Second})
	if rec.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", rec.Status)
	}
	if !errors.Is(rec.Err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", rec.Err)
	}
	if rec.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (MaxRetries)", rec.Attempts)
	}
}

func TestBackgroundLoadDelaysForeground(t *testing.T) {
	mk := func(bg bool) time.Duration {
		cfg := quiet(4)
		cfg.Seed = 7
		if bg {
			cfg.Clusters[0].BackgroundMeanIAT = 30 * time.Second
			cfg.Clusters[0].BackgroundMeanDur = 10 * time.Minute
			cfg.Clusters[0].BackgroundSDDur = 5 * time.Minute
			cfg.BackgroundHorizon = 2 * time.Hour
		}
		eng := sim.NewEngine()
		g := New(eng, cfg)
		var last sim.Time
		done := 0
		for i := 0; i < 12; i++ {
			g.Submit(JobSpec{Runtime: time.Minute}, func(r *JobRecord) {
				done++
				if r.Completed > last {
					last = r.Completed
				}
			})
		}
		for done < 12 && eng.Step() {
		}
		if done != 12 {
			t.Fatal("jobs did not finish")
		}
		return time.Duration(last)
	}
	loaded, empty := mk(true), mk(false)
	if loaded <= empty {
		t.Fatalf("background load did not increase makespan: loaded=%v empty=%v", loaded, empty)
	}
}

func TestBackgroundHorizonTerminates(t *testing.T) {
	cfg := quiet(4)
	cfg.Clusters[0].BackgroundMeanIAT = time.Second
	cfg.Clusters[0].BackgroundMeanDur = 2 * time.Second
	cfg.Clusters[0].BackgroundSDDur = time.Second
	cfg.BackgroundHorizon = time.Minute
	eng := sim.NewEngine()
	New(eng, cfg)
	eng.Run() // must terminate: generator stops at the horizon
	if eng.Now() < sim.Time(50*time.Second) {
		t.Fatalf("background generation stopped too early: %v", eng.Now())
	}
}

// TestBackgroundZeroMeanDuration runs background load with no duration
// mean: the grid builds without panicking, and its background jobs take no
// time.
func TestBackgroundZeroMeanDuration(t *testing.T) {
	cfg := quiet(4)
	cfg.Clusters[0].BackgroundMeanIAT = time.Second
	cfg.BackgroundHorizon = time.Minute
	eng := sim.NewEngine()
	g := New(eng, cfg)
	eng.Run()
	if n := g.ClusterStats()[0].BackgroundJobs; n == 0 {
		t.Fatal("no background jobs started")
	}
	if eng.Now() > sim.Time(time.Minute) {
		t.Fatalf("zero-duration background jobs ran past the horizon: %v", eng.Now())
	}
}

func TestBrokerSpreadsLoad(t *testing.T) {
	cfg := quiet(0)
	cfg.Clusters = []ClusterConfig{
		{Name: "a", Nodes: 4, MinSpeed: 1, MaxSpeed: 1, TransferMBps: 1e12, TransferStreams: 4},
		{Name: "b", Nodes: 4, MinSpeed: 1, MaxSpeed: 1, TransferMBps: 1e12, TransferStreams: 4},
	}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	for i := 0; i < 16; i++ {
		g.Submit(JobSpec{Runtime: time.Hour}, func(*JobRecord) {})
	}
	eng.Run()
	seen := map[string]int{}
	for _, r := range g.Records() {
		seen[r.Cluster]++
	}
	if seen["a"] == 0 || seen["b"] == 0 {
		t.Fatalf("broker sent every job to one cluster: %v", seen)
	}
}

func TestOverheadStatsSane(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackgroundHorizon = 6 * time.Hour
	eng := sim.NewEngine()
	g := New(eng, cfg)
	done := 0
	for i := 0; i < 50; i++ {
		g.Submit(JobSpec{Runtime: 5 * time.Minute}, func(*JobRecord) { done++ })
	}
	for done < 50 && eng.Step() {
	}
	st := g.Overheads()
	if st.Jobs == 0 {
		t.Fatal("no completed jobs")
	}
	if st.Mean < 30*time.Second || st.Mean > 20*time.Minute {
		t.Fatalf("default-config mean overhead %v implausible (want minutes-scale)", st.Mean)
	}
	if st.SD == 0 {
		t.Fatal("overhead has zero variance on a production-grid model")
	}
	if st.Min > st.P50 || st.P50 > st.P90 || st.P90 > st.Max {
		t.Fatalf("percentiles out of order: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestOverheadStatsEmpty(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(1))
	st := g.Overheads()
	if st.Jobs != 0 || st.String() != "no completed jobs" {
		t.Fatalf("empty stats = %+v %q", st, st.String())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		cfg := DefaultConfig()
		cfg.BackgroundHorizon = 4 * time.Hour
		eng := sim.NewEngine()
		g := New(eng, cfg)
		var times []sim.Time
		done := 0
		for i := 0; i < 20; i++ {
			g.Submit(JobSpec{Runtime: time.Minute}, func(r *JobRecord) {
				done++
				times = append(times, r.Completed)
			})
		}
		for done < 20 && eng.Step() {
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at job %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTotalAndBusyNodes(t *testing.T) {
	cfg := quiet(4)
	eng := sim.NewEngine()
	g := New(eng, cfg)
	if g.TotalNodes() != 4 {
		t.Fatalf("TotalNodes = %d, want 4", g.TotalNodes())
	}
	g.Submit(JobSpec{Runtime: time.Hour}, func(*JobRecord) {})
	eng.RunUntil(sim.Time(30 * time.Second))
	if g.BusyNodes() != 1 {
		t.Fatalf("BusyNodes = %d, want 1 while job is running", g.BusyNodes())
	}
	if g.QueuedJobs() != 0 {
		t.Fatalf("QueuedJobs = %d, want 0", g.QueuedJobs())
	}
}

func TestIdealGridZeroOverhead(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, IdealConfig(8))
	rec := submitOne(t, eng, g, JobSpec{Runtime: 42 * time.Second})
	if rec.Overhead() != 0 {
		t.Fatalf("ideal grid overhead = %v, want 0", rec.Overhead())
	}
	if rec.Makespan() != 42*time.Second {
		t.Fatalf("ideal grid makespan = %v, want 42s", rec.Makespan())
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 || c.Has("x") {
		t.Fatal("new catalog not empty")
	}
	c.Register("b", 2)
	c.Register("a", 1)
	c.Register("a", 3) // overwrite
	if size, ok := c.Lookup("a"); !ok || size != 3 {
		t.Fatalf("Lookup(a) = %v,%v want 3,true", size, ok)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[JobStatus]string{
		StatusSubmitted: "submitted", StatusRunning: "running",
		StatusCompleted: "completed", StatusFailed: "failed",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if JobStatus(99).String() == "" {
		t.Error("unknown status renders empty")
	}
}

func TestSubmitNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Submit(nil) did not panic")
		}
	}()
	New(sim.NewEngine(), quiet(1)).Submit(JobSpec{}, nil)
}

func TestNoClustersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no clusters did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}

// Property: on a quiet grid, a job's phase timestamps are monotone
// non-decreasing for any runtime.
func TestQuickPhaseMonotonicity(t *testing.T) {
	f := func(runtimeSec uint16, seed uint64) bool {
		cfg := quiet(2)
		cfg.Seed = seed
		eng := sim.NewEngine()
		g := New(eng, cfg)
		var rec *JobRecord
		g.Submit(JobSpec{Runtime: time.Duration(runtimeSec%3600) * time.Second},
			func(r *JobRecord) { rec = r })
		eng.Run()
		return rec != nil &&
			rec.Submitted <= rec.Accepted && rec.Accepted <= rec.Matched &&
			rec.Matched <= rec.Started && rec.Started <= rec.InputDone &&
			rec.InputDone <= rec.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: n serial jobs on one node never overlap compute phases.
func TestQuickNoOversubscription(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2
		eng := sim.NewEngine()
		g := New(eng, quiet(1))
		for i := 0; i < n; i++ {
			g.Submit(JobSpec{Runtime: 10 * time.Second}, func(*JobRecord) {})
		}
		eng.Run()
		recs := g.Records()
		for i := 1; i < len(recs); i++ {
			if recs[i].Started < recs[i-1].Completed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
