package grid

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// victimOracle is victim selection as it was before the residency list:
// residents in lexical name order, each looked up in the catalog, the
// policy-first one above the floor winning. It reports the victim's name
// and whether there is one.
func victimOracle(c *Catalog, se *seState) (string, bool) {
	floor := c.floorOr1()
	var best string
	var bestFile SEFile
	found := false
	for _, name := range sortedKeys(se.slot) {
		e := c.files[name]
		if e == nil || len(e.reps) <= floor {
			continue
		}
		f := se.files[se.slot[name]]
		cand := SEFile{Name: name, SizeMB: e.sizeMB, LastAccess: f.lastAccess, Hits: f.hits}
		if !found || se.policy.Before(cand, bestFile) {
			best, bestFile, found = name, cand, true
		}
	}
	return best, found
}

// checkResidency verifies the storage elements' residency invariants:
// the residency list and its slot index agree, every resident holds the
// catalog's own entry for its name and a replica at the element's site,
// every replica at a configured site is resident, each gauge's level is
// the sum of its residents' sizes, and pickVictim picks the oracle's
// victim.
func checkResidency(t *testing.T, c *Catalog, step string) {
	t.Helper()
	for _, key := range sortedKeys(c.storage) {
		se := c.storage[key]
		if len(se.slot) != len(se.files) {
			t.Fatalf("%s: %v: %d slots for %d residents", step, se.site, len(se.slot), len(se.files))
		}
		sum := 0.0
		for i, f := range se.files {
			if j, ok := se.slot[f.name]; !ok || j != i {
				t.Fatalf("%s: %v: resident %q at %d has slot %d (%v)", step, se.site, f.name, i, j, ok)
			}
			if e := c.files[f.name]; e != f.entry {
				t.Fatalf("%s: %v: resident %q does not hold the catalog's entry", step, se.site, f.name)
			}
			if !hasReplicaAt(c, f.name, se.site) {
				t.Fatalf("%s: %v: resident %q has no replica there", step, se.site, f.name)
			}
			sum += f.entry.sizeMB
		}
		if lvl := se.gauge.Level(); lvl != sum {
			t.Fatalf("%s: %v: gauge level %v, residents sum to %v", step, se.site, lvl, sum)
		}
		want, ok := victimOracle(c, se)
		got := c.pickVictim(se)
		if (got >= 0) != ok || (ok && se.files[got].name != want) {
			t.Fatalf("%s: %v: pickVictim = %d, oracle picks %q (%v)", step, se.site, got, want, ok)
		}
	}
	for _, name := range c.Names() {
		for _, r := range c.files[name].reps {
			se := c.storage[r.Site.key()]
			if se == nil {
				continue
			}
			if _, ok := se.slot[name]; !ok {
				t.Fatalf("%s: replica of %q at %v is not resident", step, name, r.Site)
			}
		}
	}
}

// TestResidencyRandomized drives seeded random sequences of catalog and
// storage operations — registration, replica add/remove, unregistration,
// stage-in touches, element outages and reconfiguration — over three
// sites with small elements, under both policies and replica floors 0–3,
// checking the residency invariants and the victim choice against the
// sort-and-scan oracle after every operation.
func TestResidencyRandomized(t *testing.T) {
	names := []string{"", "a", "b", "c", "d", "e", "f", "g", "h", "i"}
	sites := []Site{{Grid: "g0", Cluster: "c0"}, {Grid: "g1", Cluster: "c1"}, {Grid: "g2", Cluster: "c2"}}
	const seeds, ops = 12, 300
	var evictions uint64
	for _, policy := range []EvictionPolicy{EvictLRU(), EvictPopularity()} {
		for floor := 0; floor <= 3; floor++ {
			for seed := uint64(1); seed <= seeds; seed++ {
				r := rng.New(seed*16 + uint64(floor))
				var now sim.Time
				var plan StagePlan
				c := newStorageCatalog(&now)
				c.SetLinks(DefaultWAN())
				c.SetReplicaFloor(floor)
				c.ConfigureSE(sites[0], float64(4+r.Intn(9)), policy)
				c.ConfigureSE(sites[1], float64(4+r.Intn(9)), policy)
				for op := 0; op < ops; op++ {
					now += sim.Time(r.Intn(3)) * sim.Time(time.Second)
					name := names[r.Intn(len(names))]
					site := sites[r.Intn(len(sites))]
					var step string
					switch k := r.Intn(20); {
					case k < 5:
						size := float64(1 + r.Intn(4))
						c.RegisterAt(name, size, site)
						step = fmt.Sprintf("RegisterAt(%q, %v, %v)", name, size, site)
					case k < 10:
						c.AddReplica(name, site)
						step = fmt.Sprintf("AddReplica(%q, %v)", name, site)
					case k < 12:
						c.RemoveReplica(name, site)
						step = fmt.Sprintf("RemoveReplica(%q, %v)", name, site)
					case k < 13:
						c.Unregister(name)
						step = fmt.Sprintf("Unregister(%q)", name)
					case k < 17:
						inputs := []string{name, names[r.Intn(len(names))]}
						c.stagePlanInto(&plan, inputs, site)
						step = fmt.Sprintf("stagePlanInto(%q, %v)", inputs, site)
					case k < 19:
						down := !c.SEDown(site)
						c.SetSEDown(site, down)
						step = fmt.Sprintf("SetSEDown(%v, %v)", site, down)
					default:
						capMB := float64(r.Intn(13))
						c.ConfigureSE(site, capMB, policy)
						step = fmt.Sprintf("ConfigureSE(%v, %v)", site, capMB)
					}
					checkResidency(t, c, fmt.Sprintf("%s floor %d seed %d op %d %s", policy.Name(), floor, seed, op, step))
				}
				for _, st := range c.SEStats() {
					evictions += st.Evictions
				}
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no operation sequence evicted anything; the test exercises no victim selection")
	}
}

// newVictimRig returns a catalog whose sA element holds n 1 MB residents,
// each accessed at its own instant, under a replica floor of 2: every
// file has copies at sA and sB, and every tenth a third copy at sC, so a
// tenth of the residents are evictable.
func newVictimRig(n int) (*Catalog, *seState) {
	var now sim.Time
	sC := Site{Grid: "g3", Cluster: "cC"}
	c := newStorageCatalog(&now)
	c.SetReplicaFloor(2)
	c.ConfigureSE(sA, 0, EvictLRU())
	for i := 0; i < n; i++ {
		now += sim.Time(time.Second)
		name := fmt.Sprintf("f%05d", i)
		c.RegisterAt(name, 1, sA)
		c.AddReplica(name, sB)
		if i%10 == 0 {
			c.AddReplica(name, sC)
		}
	}
	return c, c.storage[sA.key()]
}

// TestPickVictimAllocFree pins victim selection's allocation contract:
// scanning an element's residents for the policy-first evictable one
// allocates nothing, however many residents there are.
func TestPickVictimAllocFree(t *testing.T) {
	c, se := newVictimRig(2000)
	if avg := testing.AllocsPerRun(100, func() {
		if i := c.pickVictim(se); i < 0 || se.files[i].name != "f00000" {
			t.Fatalf("pickVictim = %d, want the oldest evictable resident f00000", i)
		}
	}); avg != 0 {
		t.Fatalf("pickVictim allocates %.1f objects per call, want 0", avg)
	}
}

// BenchmarkPickVictim measures one victim selection over a 2000-resident
// element whose residents mostly sit at the replica floor.
func BenchmarkPickVictim(b *testing.B) {
	c, se := newVictimRig(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.pickVictim(se) < 0 {
			b.Fatal("no victim")
		}
	}
}
