package federation

import (
	"repro/internal/grid"
	"repro/internal/sim"
)

// repairNeeded is the catalog's repair hook (armed by Config.MinReplicas
// > 1): the named file just dropped below the replica floor — at
// registration with too few initial copies, or because an SE death or
// grid outage darkened enough of its replica set. One repair transfer is
// scheduled at a time per file; each landed copy re-checks the floor, so
// a file registered with one replica under MinReplicas 3 is topped up by
// two sequential copies.
func (f *Federation) repairNeeded(name string) {
	if f.repairing[name] {
		return
	}
	f.scheduleRepair(name)
}

// scheduleRepair copies one replica of the named file onto the first
// member grid (configuration order) that is fully alive and does not
// already hold a live copy, paying the link model's transfer time from
// the best surviving replica — the live copy with the cheapest link into
// the chosen target, lexical site order breaking ties — as a pure delay. Repair traffic does not
// occupy the contended WAN fabric: it models an asynchronous replica
// manager trickling copies in the background, not a job's synchronous
// stage-in (documented in DESIGN.md; folding it into the fabric is an
// open item). No-ops when the file has no live source left (it is lost —
// repair cannot invent data), when an unplaced replica exists (local
// everywhere, nothing to repair), or when no eligible target remains.
func (f *Federation) scheduleRepair(name string) {
	size, ok := f.catalog.Lookup(name)
	if !ok {
		return
	}
	// The buffer is reused across repairs: nothing below re-enters
	// scheduleRepair, and the transfer closure captures only src.
	live := f.catalog.AppendLiveReplicas(f.liveBuf[:0], name)
	f.liveBuf = live
	if len(live) == 0 {
		return
	}
	for _, r := range live {
		if (r.Site == grid.Site{}) {
			return
		}
	}
	if len(live) >= f.cfg.MinReplicas {
		return
	}
	// Capacity-aware targeting: among the fully-alive member grids not
	// already holding a live copy, pick the one whose grid-level SE (the
	// element repair copies land on) is least full right now, so repair
	// traffic spreads by free space instead of piling every copy onto the
	// first healthy grid until its eviction policy thrashes. Ties —
	// always, under passive storage, where every gauge reads zero —
	// resolve to the lexically smallest grid name, which for the
	// auto-assigned "gridNN" names is exactly the historical
	// first-healthy-in-configuration-order choice.
	target := -1
	var targetUsed float64
	for i := range f.grids {
		if f.grids[i].Down() || f.grids[i].StorageDown() {
			continue
		}
		held := false
		for _, r := range live {
			if r.Site.Grid == f.names[i] {
				held = true
				break
			}
		}
		if held {
			continue
		}
		used := f.catalog.SEUsedMB(grid.Site{Grid: f.names[i]})
		if target < 0 || used < targetUsed ||
			(used == targetUsed && f.names[i] < f.names[target]) {
			target, targetUsed = i, used
		}
	}
	if target < 0 {
		return
	}
	// Best surviving source: the live replica with the cheapest link into
	// the chosen target. AppendLiveReplicas yields deterministic site order, so
	// keeping the first minimum is the lexical tie-break.
	dst := grid.Site{Grid: f.names[target]}
	src := live[0].Site
	d := f.catalog.Link(src, dst).Cost(size)
	for _, r := range live[1:] {
		if c := f.catalog.Link(r.Site, dst).Cost(size); c < d {
			src, d = r.Site, c
		}
	}
	f.repairing[name] = true
	f.eng.Schedule(sim.Time(d), func() {
		delete(f.repairing, name)
		// The file may have been unregistered while the copy was in
		// flight; repair has nothing left to maintain.
		if !f.catalog.Has(name) {
			return
		}
		// The world may have moved during the transfer: if the source died
		// mid-copy or the target went dark, a copy from/to a dead SE never
		// lands — but the file is still below the floor, so fall through to
		// repairNeeded and re-try from a surviving replica instead of
		// stranding the file until an unrelated below-floor event fires.
		if !f.catalog.SiteDark(src) && !f.catalog.SiteDark(dst) {
			if f.catalog.AddReplica(name, dst) {
				f.repairs++
				f.repairedMB += size
			}
		}
		// Top up toward the floor (or re-try elsewhere if the copy failed
		// or replicas died while it was in flight).
		f.repairNeeded(name)
	})
}
