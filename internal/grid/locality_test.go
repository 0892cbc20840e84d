package grid

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCatalogReplicaSets(t *testing.T) {
	c := NewCatalog()
	a := Site{Grid: "g0", Cluster: "ce00"}
	b := Site{Grid: "g1", Cluster: "ce03"}

	c.RegisterAt("f", 10, a)
	if reps := c.Replicas("f"); len(reps) != 1 || reps[0].Site != a || reps[0].SizeMB != 10 {
		t.Fatalf("Replicas after RegisterAt = %v", reps)
	}
	if !c.AddReplica("f", b) {
		t.Fatal("AddReplica on a registered name failed")
	}
	if c.AddReplica("nope", b) {
		t.Fatal("AddReplica on an unregistered name succeeded")
	}
	if !c.AddReplica("f", b) {
		t.Fatal("duplicate AddReplica must be an ok no-op")
	}
	reps := c.Replicas("f")
	if len(reps) != 2 {
		t.Fatalf("replica count = %d, want 2 (duplicate site must not grow the set)", len(reps))
	}
	// Deterministic site order regardless of insertion order.
	if reps[0].Site != a || reps[1].Site != b {
		t.Fatalf("replicas out of site order: %v", reps)
	}
	if size, ok := c.Lookup("f"); !ok || size != 10 {
		t.Fatalf("Lookup = %v,%v", size, ok)
	}

	// Re-registration replaces the whole replica set: the GFN points at
	// the latest replica set, so the old copies are gone.
	c.RegisterAt("f", 20, b)
	reps = c.Replicas("f")
	if len(reps) != 1 || reps[0].Site != b || reps[0].SizeMB != 20 {
		t.Fatalf("re-registration did not replace the replica set: %v", reps)
	}
	// Location-free re-registration resets to a single unplaced replica.
	c.Register("f", 30)
	reps = c.Replicas("f")
	if len(reps) != 1 || !reps[0].Site.IsZero() || reps[0].SizeMB != 30 {
		t.Fatalf("Register did not reset to one unplaced replica: %v", reps)
	}
	if c.Replicas("ghost") != nil {
		t.Fatal("Replicas of an unregistered name must be nil")
	}
}

func TestCatalogNamesDeterministic(t *testing.T) {
	c := NewCatalog()
	for i := 9; i >= 0; i-- {
		c.Register(fmt.Sprintf("gfn://f%02d", i), 1)
	}
	first := c.Names()
	for i := range first {
		if want := fmt.Sprintf("gfn://f%02d", i); first[i] != want {
			t.Fatalf("Names()[%d] = %q, want %q (lexical order)", i, first[i], want)
		}
	}
	second := c.Names()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Names() not stable across calls: %v vs %v", first, second)
		}
	}
}

func TestLinkClasses(t *testing.T) {
	lm := &Links{
		IntraGrid: Link{MBps: 5, Latency: time.Second},
		WAN:       Link{MBps: 1, Latency: 10 * time.Second},
	}
	here := Site{Grid: "g0", Cluster: "ce00"}
	cases := []struct {
		name     string
		from, to Site
		local    bool
		cost     time.Duration // for 10 MB, when not local
	}{
		{"unplaced is local", Site{}, here, true, 0},
		{"same cluster is local", here, here, true, 0},
		{"same grid other cluster is intra-grid", Site{Grid: "g0", Cluster: "ce01"}, here, false, time.Second + 2*time.Second},
		{"grid-level view of resident data is local", Site{Grid: "g0", Cluster: "ce01"}, Site{Grid: "g0"}, true, 0},
		{"other grid is WAN", Site{Grid: "g1", Cluster: "ce00"}, here, false, 10*time.Second + 10*time.Second},
	}
	for _, tc := range cases {
		l := lm.Link(tc.from, tc.to)
		if l.Local != tc.local {
			t.Errorf("%s: Local = %v, want %v", tc.name, l.Local, tc.local)
		}
		if got := l.Cost(10); got != tc.cost {
			t.Errorf("%s: Cost(10MB) = %v, want %v", tc.name, got, tc.cost)
		}
	}

	// Zero-valued classes degrade to local: the zero Links is the
	// location-blind model, and DefaultWAN keeps intra-grid local.
	var blind Links
	if !blind.Link(Site{Grid: "g1", Cluster: "x"}, here).Local {
		t.Fatal("zero Links must treat WAN as local")
	}
	dw := DefaultWAN()
	if !dw.Link(Site{Grid: "g0", Cluster: "ce01"}, here).Local {
		t.Fatal("DefaultWAN must keep intra-grid transfers local")
	}
	if dw.Link(Site{Grid: "g1", Cluster: "ce00"}, here).Local {
		t.Fatal("DefaultWAN must not treat cross-grid transfers as local")
	}
	if !LocalLinks().Link(Site{Grid: "g1"}, here).Local {
		t.Fatal("LocalLinks must treat everything as local")
	}
}

func TestCatalogPlan(t *testing.T) {
	c := NewCatalog()
	c.SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	here := Site{Grid: "g0", Cluster: "ce00"}
	c.RegisterAt("local", 40, here)
	c.Register("anywhere", 7)
	c.RegisterAt("far", 30, Site{Grid: "g1", Cluster: "ce00"})

	p := c.Plan([]string{"local", "anywhere", "far"}, here)
	if p.Missing != "" {
		t.Fatalf("unexpected missing %q", p.Missing)
	}
	if p.LocalMB != 47 || p.LocalFiles != 2 {
		t.Fatalf("local class = %v MB / %d files, want 47 / 2", p.LocalMB, p.LocalFiles)
	}
	if p.RemoteMB != 30 || p.RemoteFiles != 1 {
		t.Fatalf("remote class = %v MB / %d files, want 30 / 1", p.RemoteMB, p.RemoteFiles)
	}
	if want := 5*time.Second + 15*time.Second; p.RemoteTime != want {
		t.Fatalf("RemoteTime = %v, want %v", p.RemoteTime, want)
	}

	// A replica added on the consumer's grid turns the fetch local: the
	// cheapest replica wins.
	c.AddReplica("far", Site{Grid: "g0", Cluster: "ce07"})
	p = c.Plan([]string{"far"}, here)
	if p.RemoteFiles != 0 || p.LocalMB != 30 {
		t.Fatalf("best-replica selection ignored the local copy: %+v", p)
	}

	p = c.Plan([]string{"local", "ghost"}, here)
	if p.Missing != "ghost" {
		t.Fatalf("Missing = %q, want ghost", p.Missing)
	}
}

// TestMissingInputCountedInClusterStats pins the stage-in failure
// accounting: a job consuming an unregistered GFN fails with ErrNoSuchFile
// and the attempt shows up in the executing cluster's failure counters.
func TestMissingInputCountedInClusterStats(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, quiet(2))
	rec := submitOne(t, eng, g, JobSpec{Name: "consumer", Inputs: []string{"gfn://absent"}, Runtime: time.Second})
	if rec.Status != StatusFailed || !errors.Is(rec.Err, ErrNoSuchFile) {
		t.Fatalf("status=%v err=%v, want failed with ErrNoSuchFile", rec.Status, rec.Err)
	}
	st := g.ClusterStats()
	if len(st) != 1 {
		t.Fatalf("cluster stats = %v", st)
	}
	if st[0].ForegroundJobs != 1 || st[0].ForegroundFailed != 1 {
		t.Fatalf("stage-in failure not counted: jobs=%d failed=%d, want 1/1",
			st[0].ForegroundJobs, st[0].ForegroundFailed)
	}
	if st[0].RemoteInMB != 0 || st[0].RemoteFetches != 0 {
		t.Fatalf("failed stage-in must not count remote bytes: %+v", st[0])
	}
}

// TestWANStageIn pins the WAN transfer phase end to end: a job whose only
// input replica lives on another grid pays the link's latency plus
// size/bandwidth, serialized before the close-SE transfer, and the fetch
// is visible in the record and the cluster accounting.
func TestWANStageIn(t *testing.T) {
	cfg := quiet(2)
	cfg.Name = "g0"
	eng := sim.NewEngine()
	g := New(eng, cfg)
	g.Catalog().SetLinks(&Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}})
	g.Catalog().RegisterAt("gfn://far", 30, Site{Grid: "g1", Cluster: "ce00"})

	rec := submitOne(t, eng, g, JobSpec{Name: "j", Inputs: []string{"gfn://far"}, Runtime: 10 * time.Second})
	if rec.Status != StatusCompleted {
		t.Fatalf("status = %v (%v)", rec.Status, rec.Err)
	}
	// submit 2 + broker 3 + dispatch 5 + WAN fetch (5 + 30/2 = 20) = 30s
	// overhead; the ideal cluster link then moves the local class for
	// free.
	if got, want := rec.Overhead(), 30*time.Second; got != want {
		t.Fatalf("overhead = %v, want %v", got, want)
	}
	if rec.RemoteInMB != 30 || rec.LocalInMB != 0 {
		t.Fatalf("stage partition = local %v / remote %v, want 0 / 30", rec.LocalInMB, rec.RemoteInMB)
	}
	if want := 20 * time.Second; rec.RemoteFetch != want {
		t.Fatalf("RemoteFetch = %v, want %v", rec.RemoteFetch, want)
	}
	st := g.ClusterStats()[0]
	if st.RemoteInMB != 30 || st.RemoteFetches != 1 {
		t.Fatalf("cluster remote accounting = %v MB / %d fetches, want 30 / 1", st.RemoteInMB, st.RemoteFetches)
	}
}

// TestOutputsRegisterAtProducingSite pins locality propagation: a
// completed job's outputs become replicas at the cluster that ran it.
func TestOutputsRegisterAtProducingSite(t *testing.T) {
	cfg := quiet(2)
	cfg.Name = "g0"
	eng := sim.NewEngine()
	g := New(eng, cfg)
	rec := submitOne(t, eng, g, JobSpec{
		Name:    "producer",
		Runtime: time.Second,
		Outputs: []FileDecl{{Name: "gfn://out", SizeMB: 3}},
	})
	if rec.Status != StatusCompleted {
		t.Fatalf("status = %v", rec.Status)
	}
	reps := g.Catalog().Replicas("gfn://out")
	want := Site{Grid: "g0", Cluster: rec.Cluster}
	if len(reps) != 1 || reps[0].Site != want {
		t.Fatalf("output replicas = %v, want one at %v", reps, want)
	}
}

// twoClusterConfig returns a quiet two-cluster grid for ranking tests.
func twoClusterConfig() Config {
	cfg := quiet(4)
	cfg.Name = "g0"
	c := cfg.Clusters[0]
	c.Name = "ceA"
	c2 := c
	c2.Name = "ceB"
	cfg.Clusters = []ClusterConfig{c, c2}
	return cfg
}

// TestDataProximityRanking pins the broker's data-proximity term: with an
// intra-grid link cost and a meaningful weight, jobs land on the cluster
// whose close SE holds their inputs, despite matchmaking noise.
func TestDataProximityRanking(t *testing.T) {
	cfg := twoClusterConfig()
	cfg.DataProximityWeight = 0.01
	eng := sim.NewEngine()
	g := New(eng, cfg)
	g.Catalog().SetLinks(&Links{IntraGrid: Link{MBps: 1, Latency: 5 * time.Second}})
	// 200 MB on ceB: 205 s of intra-grid fetching anywhere else, i.e.
	// 2.05 rank units — far beyond the idle-grid noise band (≤ 0.065).
	g.Catalog().RegisterAt("gfn://big", 200, Site{Grid: "g0", Cluster: "ceB"})

	for i := 0; i < 8; i++ {
		rec := submitOne(t, eng, g, JobSpec{
			Name:   fmt.Sprintf("j%d", i),
			Inputs: []string{"gfn://big"},
			// Outputs are deliberately absent so the input replica stays
			// the only placed file.
			Runtime: time.Second,
		})
		if rec.Status != StatusCompleted {
			t.Fatalf("job %d: %v", i, rec.Err)
		}
		if rec.Cluster != "ceB" {
			t.Fatalf("job %d matched to %s, want ceB (data-proximity term)", i, rec.Cluster)
		}
		if rec.RemoteInMB != 0 {
			t.Fatalf("job %d fetched %v MB remotely despite running at the data", i, rec.RemoteInMB)
		}
	}

	// Control: with the term disabled the matchmaking noise must send at
	// least one of the jobs to the replica-less cluster.
	cfg = twoClusterConfig()
	cfg.DataProximityWeight = 0
	eng = sim.NewEngine()
	g = New(eng, cfg)
	g.Catalog().SetLinks(&Links{IntraGrid: Link{MBps: 1, Latency: 5 * time.Second}})
	g.Catalog().RegisterAt("gfn://big", 200, Site{Grid: "g0", Cluster: "ceB"})
	sawA := false
	for i := 0; i < 8; i++ {
		rec := submitOne(t, eng, g, JobSpec{
			Name:    fmt.Sprintf("j%d", i),
			Inputs:  []string{"gfn://big"},
			Runtime: time.Second,
		})
		if rec.Cluster == "ceA" {
			sawA = true
		}
	}
	if !sawA {
		t.Fatal("control run never used ceA — the proximity assertion above is vacuous")
	}
}

// TestWeightedFairShare pins the weighted drain order of the fair-share
// gate: with weight 2, tenant a clears the serialized UI twice per round
// against tenant b's once — the paper's shared-UI contention, now with
// priorities.
func TestWeightedFairShare(t *testing.T) {
	cfg := quiet(4)
	cfg.TenantWeights = map[string]int{"a": 2}
	eng := sim.NewEngine()
	g := New(eng, cfg)
	for i := 0; i < 12; i++ {
		g.SubmitAs("a", JobSpec{Name: fmt.Sprintf("a%d", i), Runtime: time.Second}, func(*JobRecord) {})
	}
	for i := 0; i < 6; i++ {
		g.SubmitAs("b", JobSpec{Name: fmt.Sprintf("b%d", i), Runtime: time.Second}, func(*JobRecord) {})
	}
	eng.Run()

	// Acceptance order = UI drain order (the UI is serialized). Expect
	// a,a,b repeating until both queues drain together.
	recs := append([]*JobRecord(nil), g.Records()...)
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Accepted < recs[j-1].Accepted; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	var order []string
	for _, r := range recs {
		order = append(order, r.Tenant)
	}
	for i := 0; i < 18; i++ {
		want := "a"
		if i%3 == 2 {
			want = "b"
		}
		if order[i] != want {
			t.Fatalf("drain order[%d] = %s, want %s (full order %v)", i, order[i], want, order)
		}
	}
}

// TestWeightedFairShareDefaultUnchanged pins back-compat: without
// TenantWeights the weighted gate is the historical round-robin exactly.
func TestWeightedFairShareDefaultUnchanged(t *testing.T) {
	run := func(weights map[string]int) []sim.Time {
		cfg := quiet(4)
		cfg.TenantWeights = weights
		eng := sim.NewEngine()
		g := New(eng, cfg)
		for i := 0; i < 9; i++ {
			g.SubmitAs("a", JobSpec{Runtime: time.Second}, func(*JobRecord) {})
			g.SubmitAs("b", JobSpec{Runtime: time.Second}, func(*JobRecord) {})
		}
		eng.Run()
		var acc []sim.Time
		for _, r := range g.Records() {
			acc = append(acc, r.Accepted)
		}
		return acc
	}
	plain := run(nil)
	weighted := run(map[string]int{"a": 1, "b": 0}) // sub-1 weights mean 1
	for i := range plain {
		if plain[i] != weighted[i] {
			t.Fatalf("acceptance[%d] differs: %v vs %v (weight-1 gate must equal the historical one)",
				i, plain[i], weighted[i])
		}
	}
}
