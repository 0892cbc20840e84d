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
// the sum of its residents' sizes, the evictable heap holds exactly the
// residents whose file has more copies than the floor and keeps the heap
// order with current positions, and pickVictim picks the oracle's victim.
func checkResidency(t *testing.T, c *Catalog, step string) {
	t.Helper()
	floor := c.floorOr1()
	for _, key := range sortedKeys(c.storage) {
		se := c.storage[key]
		if len(se.slot) != len(se.files) {
			t.Fatalf("%s: %v: %d slots for %d residents", step, se.site, len(se.slot), len(se.files))
		}
		sum := 0.0
		members := 0
		for i, f := range se.files {
			evictable := len(f.entry.reps) > floor
			if in := f.heapAt >= 0; in != evictable {
				t.Fatalf("%s: %v: resident %q with %d copies under floor %d: in heap %v", step, se.site, f.name, len(f.entry.reps), floor, in)
			}
			if f.heapAt >= 0 {
				members++
				if int(f.heapAt) >= len(se.heap) || se.heap[f.heapAt] != int32(i) {
					t.Fatalf("%s: %v: resident %q at %d claims heap position %d", step, se.site, f.name, i, f.heapAt)
				}
			}
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
		if members != len(se.heap) {
			t.Fatalf("%s: %v: heap holds %d entries for %d evictable residents", step, se.site, len(se.heap), members)
		}
		for h := 1; h < len(se.heap); h++ {
			if se.less(h, (h-1)/2) {
				t.Fatalf("%s: %v: heap position %d precedes its parent", step, se.site, h)
			}
		}
		want, ok := victimOracle(c, se)
		got := se.pickVictim()
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
// stage-in touches, element outages, reconfiguration (sometimes swapping
// the policy) and replica-floor changes — over three sites with small
// elements, starting from both policies and replica floors 0–3, checking
// the residency and heap invariants and the victim choice against the
// sort-and-scan oracle after every operation.
func TestResidencyRandomized(t *testing.T) {
	names := []string{"", "a", "b", "c", "d", "e", "f", "g", "h", "i"}
	sites := []Site{{Grid: "g0", Cluster: "c0"}, {Grid: "g1", Cluster: "c1"}, {Grid: "g2", Cluster: "c2"}}
	policies := []EvictionPolicy{EvictLRU(), EvictPopularity()}
	const seeds, ops = 12, 300
	var evictions uint64
	for _, policy := range policies {
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
					switch k := r.Intn(21); {
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
					case k < 20:
						capMB := float64(r.Intn(13))
						p := policy
						if r.Intn(3) == 0 {
							p = policies[r.Intn(len(policies))]
						}
						c.ConfigureSE(site, capMB, p)
						step = fmt.Sprintf("ConfigureSE(%v, %v, %s)", site, capMB, p.Name())
					default:
						k := r.Intn(4)
						c.SetReplicaFloor(k)
						step = fmt.Sprintf("SetReplicaFloor(%d)", k)
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
// reading the policy-first evictable resident off an element allocates
// nothing, however many residents there are.
func TestPickVictimAllocFree(t *testing.T) {
	_, se := newVictimRig(2000)
	if avg := testing.AllocsPerRun(100, func() {
		if i := se.pickVictim(); i < 0 || se.files[i].name != "f00000" {
			t.Fatalf("pickVictim = %d, want the oldest evictable resident f00000", i)
		}
	}); avg != 0 {
		t.Fatalf("pickVictim allocates %.1f objects per call, want 0", avg)
	}
}

// BenchmarkPickVictim measures one victim selection over a 2000-resident
// element whose residents mostly sit at the replica floor.
func BenchmarkPickVictim(b *testing.B) {
	_, se := newVictimRig(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if se.pickVictim() < 0 {
			b.Fatal("no victim")
		}
	}
}

// churnRig is a full 2000 MB element at sA whose 2000 resident 1 MB files
// all sit at a replica floor of 2 (copies at sA and sB), plus a ring of
// cached files held at sB and sC. Each step admits the next cached file
// into sA: the admission evicts the previously admitted cached copy (the
// only evictable resident, which drops that file back onto the floor),
// then finds nothing evictable and overflows by 1 MB; touches of a
// floor-pinned resident and of the fresh cached copy follow.
type churnRig struct {
	c      *Catalog
	now    *sim.Time
	pinned []string
	cached []string
	step   int
}

// newChurnRig builds the rig and warms it through one pass of the ring,
// so every backing array has reached its steady-state size.
func newChurnRig() *churnRig {
	const residents, ring = 2000, 16
	now := new(sim.Time)
	sC := Site{Grid: "g3", Cluster: "cC"}
	c := newStorageCatalog(now)
	c.SetReplicaFloor(2)
	c.ConfigureSE(sA, residents, EvictLRU())
	rig := &churnRig{c: c, now: now}
	for i := 0; i < residents; i++ {
		*now += sim.Time(time.Second)
		name := fmt.Sprintf("f%05d", i)
		c.RegisterAt(name, 1, sA)
		c.AddReplica(name, sB)
		rig.pinned = append(rig.pinned, name)
	}
	for i := 0; i < ring; i++ {
		name := fmt.Sprintf("x%02d", i)
		c.RegisterAt(name, 1, sB)
		c.AddReplica(name, sC)
		rig.cached = append(rig.cached, name)
	}
	for i := 0; i < 2*ring; i++ {
		rig.churn()
	}
	return rig
}

// churn runs one admission step of the rig.
func (r *churnRig) churn() {
	*r.now += sim.Time(time.Second)
	name := r.cached[r.step%len(r.cached)]
	r.c.touch(r.pinned[r.step%len(r.pinned)], Replica{Site: sA})
	r.c.AddReplica(name, sA)
	r.c.touch(name, Replica{Site: sA})
	r.step++
}

// TestEvictionChurnAllocFree pins the steady state of admission into a
// full element: evicting, overflowing and touching allocate nothing once
// the element's backing arrays are warm.
func TestEvictionChurnAllocFree(t *testing.T) {
	rig := newChurnRig()
	se := rig.c.storage[sA.key()]
	before := se.evictions
	if avg := testing.AllocsPerRun(200, rig.churn); avg != 0 {
		t.Fatalf("an admission into the full element allocates %.1f objects, want 0", avg)
	}
	if se.evictions == before {
		t.Fatal("the churn steps evicted nothing; the gate exercises no eviction")
	}
	if used, capMB := se.gauge.Level(), se.gauge.Capacity(); used <= capMB {
		t.Fatalf("element holds %v of %v MB, want the overflow path exercised", used, capMB)
	}
}

// BenchmarkEvictionChurn measures one admission step into a full
// 2000-resident element whose residents mostly sit at the replica floor:
// an eviction, an overflow check with nothing evictable, and two touches.
func BenchmarkEvictionChurn(b *testing.B) {
	rig := newChurnRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.churn()
	}
}
