package federation

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// repairSites returns the grid names holding a replica of the file, in
// replica-set (site-key) order.
func repairSites(f *Federation, name string) []string {
	var out []string
	for _, r := range f.Catalog().Replicas(name) {
		out = append(out, r.Site.Grid)
	}
	return out
}

// repairTestbed builds n quiet member grids g0..g(n-1) under the given
// replication floor and link model (nil keeps the federation's default
// WAN), returning the engine and federation.
func repairTestbed(t *testing.T, n, minReplicas int, links *grid.Links) (*sim.Engine, *Federation) {
	t.Helper()
	specs := make([]GridSpec, n)
	for i := range specs {
		cfg := testGridConfig(4, 2*time.Second)
		cfg.Seed = uint64(50 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	eng := sim.NewEngine()
	f, err := New(eng, Config{Grids: specs, MinReplicas: minReplicas, Links: links})
	if err != nil {
		t.Fatal(err)
	}
	return eng, f
}

// TestRepairRetriesAfterSourceDeath is the mid-copy source-death
// regression: a repair transfer whose source SE goes dark while the copy
// is in flight must not strand the file — the landing callback has to
// fall through to repairNeeded so the copy is re-tried from a surviving
// replica. Before the fix the callback early-returned after deleting the
// in-flight marker, leaving the file below the floor with no re-trigger.
func TestRepairRetriesAfterSourceDeath(t *testing.T) {
	// Four grids, floor 3. The file registers on g0 (repair #1 starts
	// from g0 toward g1, a 35 s transfer under the default WAN) and the
	// test adds a survivor copy on g3. At t=10s — mid-copy — g0's
	// storage goes dark, so the landing at t=35s finds its source dead.
	eng, f := repairTestbed(t, 4, 3, nil)
	cat := f.Catalog()
	cat.RegisterAt("gfn://x", 60, grid.Site{Grid: "g0"})
	cat.AddReplica("gfn://x", grid.Site{Grid: "g3"})
	eng.Schedule(10*time.Second, func() { f.SetStorageDown(0) })
	eng.Run()

	live := cat.AppendLiveReplicas(nil, "gfn://x")
	if len(live) != 3 {
		t.Fatalf("live replicas after source death = %d (%v), want the floor of 3 (repair must re-try from the survivor)", len(live), live)
	}
	for i, want := range []string{"g1", "g2", "g3"} {
		if live[i].Site.Grid != want {
			t.Errorf("live replica %d on %s, want %s", i, live[i].Site.Grid, want)
		}
	}
	// Repair #1 (from the dead g0) never landed; the retries from g3 and
	// then g1 did.
	if f.Repairs() != 2 {
		t.Errorf("repairs = %d, want 2 landed copies", f.Repairs())
	}
}

// TestRepairRetriesAfterTargetDeath is the mid-copy target-death
// regression: when the chosen target grid's storage goes dark while the
// repair copy is in flight, the landing fails — and the retry must land
// the copy on the next-best healthy grid instead of stranding the file
// below the floor.
func TestRepairRetriesAfterTargetDeath(t *testing.T) {
	// Three grids, floor 2. The file registers on g0; repair #1 targets
	// g1 (lexically first of the empty candidates) and is mid-copy when
	// g1's storage darkens at t=10s. The retry must land on g2.
	eng, f := repairTestbed(t, 3, 2, nil)
	cat := f.Catalog()
	cat.RegisterAt("gfn://x", 60, grid.Site{Grid: "g0"})
	eng.Schedule(10*time.Second, func() { f.SetStorageDown(1) })
	eng.Run()

	if got := repairSites(f, "gfn://x"); len(got) != 2 || got[0] != "g0" || got[1] != "g2" {
		t.Errorf("replicas after target death = %v, want [g0 g2] (retry must land on the next-best grid)", got)
	}
	if f.Repairs() != 1 {
		t.Errorf("repairs = %d, want exactly the one retried copy", f.Repairs())
	}
}

// TestRepairPicksCheapestSource pins the source-selection rule: the
// repair copy must come from the surviving replica with the cheapest
// link into the chosen target, not from the lexically-first survivor.
// The link matrix makes g0 (lexically first) a 70 s source into g2 and
// g1 a 10 s one; picking wrong is visible as a 60 s later drain.
func TestRepairPicksCheapestSource(t *testing.T) {
	links := grid.DefaultWAN()
	links.Pairs = map[grid.GridPair]grid.Link{
		{From: "g0", To: "g1"}: {MBps: 60},                           // 1 s: repair #1 lands fast
		{From: "g0", To: "g2"}: {MBps: 1, Latency: 10 * time.Second}, // 70 s: the trap
		{From: "g1", To: "g2"}: {MBps: 6},                            // 10 s: the cheapest source
	}
	eng, f := repairTestbed(t, 3, 3, links)
	cat := f.Catalog()
	// Repair #1 copies g0→g1 (1 s); its landing tops up toward the floor
	// with repair #2 into g2, whose source choice is under test: live
	// replicas are then {g0, g1}, and the cheapest link into g2 is g1's.
	cat.RegisterAt("gfn://x", 60, grid.Site{Grid: "g0"})
	eng.Run()

	if got := repairSites(f, "gfn://x"); len(got) != 3 {
		t.Fatalf("replicas = %v, want all three grids", got)
	}
	if f.Repairs() != 2 {
		t.Errorf("repairs = %d, want 2", f.Repairs())
	}
	// g0→g1 lands at 1s; g1→g2 at 1s+10s. The lexical-first bug would
	// drain at 1s+70s instead.
	if want := 11 * time.Second; eng.Now() != want {
		t.Errorf("engine drained at %v, want %v (repair #2 must copy from g1, the cheapest surviving source)", eng.Now(), want)
	}
}

// TestRepairTargetsLeastFullSE pins the capacity-aware repair targeting:
// when the replication floor asks for a copy, the target is the healthy
// member grid whose grid-level storage element has the most free space —
// not the first healthy grid in configuration order, which under capacity
// pressure would pile every repair onto one element until its eviction
// policy thrashes.
func TestRepairTargetsLeastFullSE(t *testing.T) {
	specs := make([]GridSpec, 3)
	for i := range specs {
		cfg := testGridConfig(4, 2*time.Second)
		cfg.Seed = uint64(50 + i)
		specs[i] = GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Grids:        specs,
		MinReplicas:  2,
		SECapacityMB: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := f.Catalog()
	// Nearly fill g1's grid-level SE. "filler" itself is below the k=2
	// floor, and its repair — targeted while g0 and g2 both read empty —
	// resolves the tie to the lexically smaller g0.
	cat.RegisterAt("gfn://filler", 900, grid.Site{Grid: "g1"})
	// The file under test registers on g0. Its repair candidates are g1
	// (900 MB resident) and g2 (empty): capacity-aware targeting must
	// choose g2, where the first-healthy rule would have chosen g1.
	cat.RegisterAt("gfn://data", 60, grid.Site{Grid: "g0"})
	eng.Run()

	if got := repairSites(f, "gfn://data"); len(got) != 2 || got[0] != "g0" || got[1] != "g2" {
		t.Errorf("gfn://data replicas on %v, want [g0 g2] (repair must avoid the near-capacity g1)", got)
	}
	if got := repairSites(f, "gfn://filler"); len(got) != 2 || got[0] != "g0" || got[1] != "g1" {
		t.Errorf("gfn://filler replicas on %v, want [g0 g1] (empty-gauge tie resolves lexically)", got)
	}
	if f.Repairs() != 2 {
		t.Errorf("repairs = %d, want 2", f.Repairs())
	}
}
