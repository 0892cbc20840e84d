package grid

import (
	"sort"

	"repro/internal/sim"
)

// SEFile describes one file resident on a storage element, as eviction
// policies see it: identity, size, and the access history the catalog
// records every time a stage-in actually fetches the file (planning and
// ranking do not count as accesses).
type SEFile struct {
	// Name is the file's GFN.
	Name string
	// SizeMB is the resident copy's size.
	SizeMB float64
	// LastAccess is the virtual instant the copy was last staged from (or
	// registered, for a never-read copy).
	LastAccess sim.Time
	// Hits counts the stage-ins that fetched this copy.
	Hits uint64
}

// EvictionPolicy orders a storage element's resident files for eviction
// under capacity pressure. Implementations must be pure functions of the
// two candidates — eviction runs inside the single-threaded engine and
// golden tests pin its drain order — and must be a strict total order on
// distinct candidates (use the file name as the final tie-break): the
// victim is the minimum under Before, kept at the root of a binary heap
// whose shape depends on the order residents arrived in, so only a total
// order makes the root independent of that history.
type EvictionPolicy interface {
	// Name identifies the policy in reports and CLI tables.
	Name() string
	// Before reports whether a should be evicted before b.
	Before(a, b SEFile) bool
}

// EvictLRU returns the least-recently-used eviction policy: the candidate
// with the oldest last access drains first, names breaking ties.
func EvictLRU() EvictionPolicy { return lruPolicy{} }

type lruPolicy struct{}

// Name identifies the policy.
func (lruPolicy) Name() string { return "lru" }

// Before implements EvictionPolicy: oldest last access first.
func (lruPolicy) Before(a, b SEFile) bool {
	if a.LastAccess != b.LastAccess {
		return a.LastAccess < b.LastAccess
	}
	return a.Name < b.Name
}

// EvictPopularity returns the popularity-weighted eviction policy: the
// candidate with the fewest recorded accesses drains first (coldest file
// loses its slot regardless of recency), last access and then name
// breaking ties. Under a heavy-tailed access trace it keeps the popular
// head resident where LRU churns it out during a long scan of the tail.
func EvictPopularity() EvictionPolicy { return popularityPolicy{} }

type popularityPolicy struct{}

// Name identifies the policy.
func (popularityPolicy) Name() string { return "popularity" }

// Before implements EvictionPolicy: fewest hits, then oldest access.
func (popularityPolicy) Before(a, b SEFile) bool {
	if a.Hits != b.Hits {
		return a.Hits < b.Hits
	}
	if a.LastAccess != b.LastAccess {
		return a.LastAccess < b.LastAccess
	}
	return a.Name < b.Name
}

// seFile is one resident copy on a storage element: the file's name and
// catalog entry plus the access record eviction policies read, and the
// copy's position in the element's evictable heap (-1 while the file sits
// at or below the replica floor). The entry is arena-allocated, so the
// pointer stays valid for as long as the copy is resident (a resident
// always leaves before its entry leaves the catalog). The entry's sizeMB
// is the copy's size: a file is only resized by RegisterAt, which drops
// every old resident first.
type seFile struct {
	name       string
	entry      *catEntry
	lastAccess sim.Time
	hits       uint64
	heapAt     int32
}

// seState is one site's active storage element: a capacity gauge over the
// resident replicas, an eviction policy draining it under pressure, and
// an up/down flag making the site's replicas unreachable while dark.
// Residents live in a dense slice (removal swaps the last one into the
// hole) indexed by name through slot, so the by-name paths are one map
// lookup. heap indexes the evictable residents — exactly those whose
// file has more copies than the replica floor, dark copies counted — as
// a binary min-heap of residency-list indices under the policy's Before,
// so the victim is the root and a full element with nothing evictable
// answers in O(1).
type seState struct {
	site      Site
	gauge     *sim.Gauge
	policy    EvictionPolicy
	down      bool
	files     []seFile
	slot      map[string]int
	heap      []int32
	evictions uint64
	evictedMB float64
}

// admit appends a resident copy with a fresh access record, indexing it
// as a victim candidate when it is evictable.
func (se *seState) admit(name string, e *catEntry, now sim.Time, evictable bool) {
	i := len(se.files)
	se.slot[name] = i
	se.files = append(se.files, seFile{name: name, entry: e, lastAccess: now, heapAt: -1})
	if evictable {
		se.push(i)
	}
}

// drop removes the resident at index i, moving the last resident into
// its slot (and its heap entry along with it).
func (se *seState) drop(i int) {
	if se.files[i].heapAt >= 0 {
		se.remove(i)
	}
	last := len(se.files) - 1
	delete(se.slot, se.files[i].name)
	if i != last {
		se.files[i] = se.files[last]
		se.slot[se.files[i].name] = i
		if h := se.files[i].heapAt; h >= 0 {
			se.heap[h] = int32(i)
		}
	}
	se.files[last] = seFile{}
	se.files = se.files[:last]
}

// pickVictim returns the index in se.files of the policy-first evictable
// resident, or -1 when nothing is evictable: the heap's root. The policy
// is a strict total order, so the root is the unique minimum whatever
// order the residents arrived in.
func (se *seState) pickVictim() int {
	if len(se.heap) == 0 {
		return -1
	}
	return int(se.heap[0])
}

// setEvictable adds the resident at index i to the heap or takes it out.
func (se *seState) setEvictable(i int, evictable bool) {
	switch in := se.files[i].heapAt >= 0; {
	case evictable && !in:
		se.push(i)
	case !evictable && in:
		se.remove(i)
	}
}

// rebuild re-derives every resident's heap membership under the given
// floor and re-establishes the heap order.
func (se *seState) rebuild(floor int) {
	se.heap = se.heap[:0]
	for i := range se.files {
		f := &se.files[i]
		f.heapAt = -1
		if len(f.entry.reps) > floor {
			f.heapAt = int32(len(se.heap))
			se.heap = append(se.heap, int32(i))
		}
	}
	se.heapify()
}

// heapify restores the heap order over the current members, as after a
// policy change.
func (se *seState) heapify() {
	for h := len(se.heap)/2 - 1; h >= 0; h-- {
		se.siftDown(h)
	}
}

// push adds the resident at index i to the heap.
func (se *seState) push(i int) {
	h := len(se.heap)
	se.files[i].heapAt = int32(h)
	se.heap = append(se.heap, int32(i))
	se.siftUp(h)
}

// remove takes the resident at index i out of the heap.
func (se *seState) remove(i int) {
	h, last := int(se.files[i].heapAt), len(se.heap)-1
	if h != last {
		se.swap(h, last)
	}
	se.heap = se.heap[:last]
	se.files[i].heapAt = -1
	if h != last {
		se.fix(h)
	}
}

// fix restores the heap order after the member at heap position h changed
// its access record.
func (se *seState) fix(h int) {
	if !se.siftDown(h) {
		se.siftUp(h)
	}
}

// candidate is the policy's view of the heap member at position h.
func (se *seState) candidate(h int) SEFile {
	f := &se.files[se.heap[h]]
	return SEFile{Name: f.name, SizeMB: f.entry.sizeMB, LastAccess: f.lastAccess, Hits: f.hits}
}

// less orders heap positions a and b under the element's policy.
func (se *seState) less(a, b int) bool {
	return se.policy.Before(se.candidate(a), se.candidate(b))
}

// swap exchanges heap positions a and b, keeping both residents' heapAt
// current.
func (se *seState) swap(a, b int) {
	se.heap[a], se.heap[b] = se.heap[b], se.heap[a]
	se.files[se.heap[a]].heapAt = int32(a)
	se.files[se.heap[b]].heapAt = int32(b)
}

// siftUp moves the member at heap position h toward the root while it
// precedes its parent.
func (se *seState) siftUp(h int) {
	for h > 0 {
		p := (h - 1) / 2
		if !se.less(h, p) {
			return
		}
		se.swap(h, p)
		h = p
	}
}

// siftDown moves the member at heap position h0 toward the leaves while a
// child precedes it, reporting whether it moved.
func (se *seState) siftDown(h0 int) bool {
	h, n := h0, len(se.heap)
	for {
		l := 2*h + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && se.less(r, l) {
			m = r
		}
		if !se.less(m, h) {
			break
		}
		se.swap(h, m)
		h = m
	}
	return h > h0
}

// SEStat summarizes one storage element's state and accounting.
type SEStat struct {
	// Site is the element's location.
	Site Site
	// CapacityMB is the configured capacity (zero means unlimited).
	CapacityMB float64
	// UsedMB is the resident bytes right now.
	UsedMB float64
	// PeakMB is the highest residency observed.
	PeakMB float64
	// Files counts the resident replicas.
	Files int
	// Evictions counts replicas drained under capacity pressure.
	Evictions uint64
	// EvictedMB totals the bytes those evictions freed.
	EvictedMB float64
	// Down reports whether the element is currently dark.
	Down bool
}

// ConfigureSE gives the site an active storage element with the given
// capacity in MB (non-positive means unlimited) and eviction policy (nil
// means EvictLRU). Replicas already resident at the site are adopted into
// the element's accounting. Configuring the unplaced (zero) site panics:
// an unplaced replica is local everywhere and can neither fill nor lose a
// storage element. Reconfiguring an existing element replaces capacity
// and policy but keeps residency, access history and the down flag.
func (c *Catalog) ConfigureSE(site Site, capacityMB float64, policy EvictionPolicy) {
	if site.IsZero() {
		panic("grid: ConfigureSE on the unplaced site")
	}
	if policy == nil {
		policy = EvictLRU()
	}
	if c.storage == nil {
		c.storage = make(map[string]*seState)
	}
	key := site.key()
	se, ok := c.storage[key]
	if !ok {
		se = &seState{site: site, policy: policy, slot: make(map[string]int)}
		c.storage[key] = se
		// Adopt replicas already pinned at the site, in lexical name order
		// so the residency list's order is deterministic.
		floor := c.floorOr1()
		for _, name := range c.Names() {
			e := c.files[name]
			for _, r := range e.reps {
				if r.Site == site {
					se.admit(name, e, c.clock(), len(e.reps) > floor)
				}
			}
		}
	}
	// A new policy orders the same evictable members differently.
	se.policy = policy
	se.heapify()
	// Rebuild the level in lexical name order so the gauge's floating-
	// point accumulation is independent of residency history.
	gauge := sim.NewGauge(capacityMB)
	for _, name := range sortedKeys(se.slot) {
		gauge.Add(se.files[se.slot[name]].entry.sizeMB)
	}
	se.gauge = gauge
}

// SetSEDown marks the site's storage element dark (down = true) or
// recovered. A dark element's replicas are skipped by stage planning,
// in-flight fetch legs sourced from it fail retryably, and a consuming
// cluster whose own close SE is dark cannot stage at all. A site never
// configured with ConfigureSE gets an unlimited element implicitly, so
// any placed site can be taken dark. Taking an element dark triggers the
// repair hook for every file the darkness drops below the replica floor.
func (c *Catalog) SetSEDown(site Site, down bool) {
	if site.IsZero() {
		panic("grid: SetSEDown on the unplaced site")
	}
	se := c.storage[site.key()]
	if se == nil {
		c.ConfigureSE(site, 0, nil)
		se = c.storage[site.key()]
	}
	if se.down == down {
		return
	}
	se.down = down
	if down {
		c.darkSEs++
		c.scanBelowFloor()
	} else {
		c.darkSEs--
	}
}

// SEDown reports whether the site's storage element is dark (false for
// sites without an element).
func (c *Catalog) SEDown(site Site) bool {
	se := c.storage[site.key()]
	return se != nil && se.down
}

// setGridDark marks every storage element of the named grid dark (the
// grid itself went down, or its storage did — Grid.SetDown and
// Grid.SetStorageDown both push through here, which is what makes a
// compute-dark grid's replicas unfetchable). Darkening triggers the
// repair hook for files dropped below the replica floor.
func (c *Catalog) setGridDark(name string, dark bool) {
	if c.gridDark[name] == dark {
		return
	}
	if c.gridDark == nil {
		c.gridDark = make(map[string]bool)
	}
	c.gridDark[name] = dark
	if dark {
		c.darkGrids++
		c.scanBelowFloor()
	} else {
		c.darkGrids--
	}
}

// SiteDark reports whether the site's storage is currently unreachable:
// its grid is dark (a compute or storage outage of the whole grid) or its
// own storage element is down. The unplaced site is never dark.
func (c *Catalog) SiteDark(s Site) bool {
	if s.IsZero() {
		return false
	}
	if c.darkGrids > 0 && c.gridDark[s.Grid] {
		return true
	}
	if c.darkSEs > 0 {
		if se := c.storage[s.key()]; se != nil && se.down {
			return true
		}
	}
	return false
}

// anyDark reports whether any storage is currently dark — the gate that
// keeps replica liveness checks free on the location-blind hot paths.
func (c *Catalog) anyDark() bool { return c.darkGrids > 0 || c.darkSEs > 0 }

// storageActive reports whether any storage feature is in play — a
// configured element or a dark grid. While false, stage-in keeps the
// exact pre-storage event structure (the goldens' bit-identity
// guarantee); while true, remote fetches walk their legs individually so
// each leg can fail against a dead source.
func (c *Catalog) storageActive() bool { return len(c.storage) > 0 || c.anyDark() }

// SetReplicaFloor sets the replication floor k: eviction never drains a
// replica of a file with k or fewer copies, and the repair hook (if set)
// fires whenever a file's live copies drop below k. Zero or one means no
// floor beyond the implicit last-copy protection. Every element's
// evictable index is rebuilt under the new floor.
func (c *Catalog) SetReplicaFloor(k int) {
	if k < 0 {
		k = 0
	}
	c.floor = k
	floor := c.floorOr1()
	for _, key := range sortedKeys(c.storage) {
		c.storage[key].rebuild(floor)
	}
}

// refreshEvictable re-derives the heap membership of the file's residents
// on every element holding a copy. Callers invoke it only when the copy
// count has just crossed the eviction floor, the one change that flips
// membership; a count moving above or below the floor flips nothing.
func (c *Catalog) refreshEvictable(name string, e *catEntry) {
	evictable := len(e.reps) > c.floorOr1()
	for _, r := range e.reps {
		if se := c.storage[r.Site.key()]; se != nil {
			if i, ok := se.slot[name]; ok {
				se.setEvictable(i, evictable)
			}
		}
	}
}

// SetRepairHook registers the callback invoked, synchronously and inside
// the engine's virtual time, whenever a file's live replica count drops
// below the replica floor: on registration (a fresh single-copy file under
// a k≥2 floor), on replica removal, and on darkness transitions (every
// file the outage strands is reported, in lexical name order). The hook
// must not mutate the catalog re-entrantly beyond AddReplica-style calls;
// federations use it to schedule k-replication repair transfers.
func (c *Catalog) SetRepairHook(h func(name string)) { c.repair = h }

// floorOr1 returns the effective eviction floor: at least the last copy
// is always protected.
func (c *Catalog) floorOr1() int {
	if c.floor > 1 {
		return c.floor
	}
	return 1
}

// clock returns the current virtual time (zero before a grid binds its
// engine to the catalog).
func (c *Catalog) clock() sim.Time {
	if c.now == nil {
		return 0
	}
	return c.now()
}

// bindClock attaches the engine's clock for access-recency accounting.
// The first binder wins, so every member grid of a federation (one shared
// engine) can bind without clobbering.
func (c *Catalog) bindClock(eng *sim.Engine) {
	if c.now == nil {
		c.now = eng.Now
	}
}

// checkFloor fires the repair hook when the entry's live replicas fall
// below the floor. An unplaced replica satisfies any floor: it is local
// everywhere and can never go dark, so there is nothing to repair.
func (c *Catalog) checkFloor(name string, e *catEntry) {
	if c.repair == nil || c.floor <= 1 {
		return
	}
	if !c.belowFloor(e) {
		return
	}
	c.repair(name)
}

// belowFloor reports whether the entry's live replica set is below the
// replication floor (never true for entries with an unplaced replica).
func (c *Catalog) belowFloor(e *catEntry) bool {
	live := 0
	for _, r := range e.reps {
		if r.Site.IsZero() {
			return false
		}
		if !c.SiteDark(r.Site) {
			live++
		}
	}
	return live < c.floor
}

// scanBelowFloor reports every file below the replication floor to the
// repair hook, in lexical name order — the darkness-transition sweep.
func (c *Catalog) scanBelowFloor() {
	if c.repair == nil || c.floor <= 1 {
		return
	}
	for _, name := range c.Names() {
		if c.belowFloor(c.files[name]) {
			c.repair(name)
		}
	}
}

// addResident folds a newly-placed replica into its site's storage
// element (no-op for sites without one), evicting under capacity pressure
// first so the incoming file has room.
func (c *Catalog) addResident(name string, e *catEntry, site Site) {
	if len(c.storage) == 0 || site.IsZero() {
		return
	}
	se := c.storage[site.key()]
	if se == nil {
		return
	}
	if _, ok := se.slot[name]; ok {
		return
	}
	c.ensureRoom(se, e.sizeMB)
	se.admit(name, e, c.clock(), len(e.reps) > c.floorOr1())
	se.gauge.Add(e.sizeMB)
}

// removeResident drops a replica from its site's storage element
// accounting (no-op for sites without one).
func (c *Catalog) removeResident(name string, site Site) {
	if len(c.storage) == 0 || site.IsZero() {
		return
	}
	se := c.storage[site.key()]
	if se == nil {
		return
	}
	i, ok := se.slot[name]
	if !ok {
		return
	}
	se.gauge.Remove(se.files[i].entry.sizeMB)
	se.drop(i)
}

// ensureRoom evicts resident replicas until an incoming file of the given
// size fits, draining in the element's policy order. The incoming file is
// not resident yet, so it is never its own victim, and no file at or
// below the replication floor is a victim either; when nothing is
// evictable the element overflows (capacity is soft — the real SE would
// reject the write, but failing a stage-out over an accounting limit
// would deadlock repair, so overflow plus the gauge's peak record is the
// honest model).
func (c *Catalog) ensureRoom(se *seState, sizeMB float64) {
	if se.gauge.Unlimited() {
		return
	}
	for se.gauge.Over(sizeMB) {
		i := se.pickVictim()
		if i < 0 {
			return
		}
		c.evictReplica(se, i)
	}
}

// evictReplica drains the resident at index i from the element: the
// replica set loses the copy, the gauge frees its bytes, and the eviction
// counters grow. Only evictable residents are victims, so the file's
// replica set stays at or above the floor — copies on dark storage count
// — and eviction never fires the repair hook; landing exactly on the
// floor makes the file's copies on other elements unevictable.
func (c *Catalog) evictReplica(se *seState, i int) {
	f := se.files[i]
	se.evictions++
	se.evictedMB += f.entry.sizeMB
	se.gauge.Remove(f.entry.sizeMB)
	se.drop(i)
	f.entry.dropSite(se.site)
	if len(f.entry.reps) == c.floorOr1() {
		c.refreshEvictable(f.name, f.entry)
	}
}

// touch records an actual stage-in access of the replica on its site's
// element (planning calls never touch — only fetches count).
func (c *Catalog) touch(name string, rep Replica) {
	if len(c.storage) == 0 || rep.Site.IsZero() {
		return
	}
	se := c.storage[rep.Site.key()]
	if se == nil {
		return
	}
	if i, ok := se.slot[name]; ok {
		f := &se.files[i]
		f.lastAccess = c.clock()
		f.hits++
		if f.heapAt >= 0 {
			se.fix(int(f.heapAt))
		}
	}
}

// legDark reports whether any source site contributing to the stage leg
// is currently dark — the liveness check the stage-in walk applies at leg
// start and leg completion, so a source dying mid-fetch fails the leg.
func (c *Catalog) legDark(l RemoteLeg) bool {
	if !c.anyDark() {
		return false
	}
	for _, s := range l.Sites {
		if c.SiteDark(s) {
			return true
		}
	}
	return false
}

// AppendLiveReplicas appends the file's currently reachable replicas
// (dark sites excluded) to dst in deterministic site order and returns
// the extended slice — dst unchanged for an unregistered name. Repair
// loops use it to pick a copy source into a reused buffer.
func (c *Catalog) AppendLiveReplicas(dst []Replica, name string) []Replica {
	e, ok := c.files[name]
	if !ok {
		return dst
	}
	for _, r := range e.reps {
		if !c.SiteDark(r.Site) {
			dst = append(dst, r)
		}
	}
	return dst
}

// SEUsedMB returns the resident bytes of the site's configured storage
// element, or zero when the site has no element (passive, unlimited
// storage). It is the cheap point query behind capacity-aware placement
// decisions — repair targeting reads it per candidate grid without
// materializing the full SEStats slice.
func (c *Catalog) SEUsedMB(site Site) float64 {
	se, ok := c.storage[site.key()]
	if !ok {
		return 0
	}
	return se.gauge.Level()
}

// SEStats returns per-element statistics for every configured storage
// element, in deterministic site order.
func (c *Catalog) SEStats() []SEStat {
	out := make([]SEStat, 0, len(c.storage))
	for _, key := range sortedKeys(c.storage) {
		se := c.storage[key]
		out = append(out, SEStat{
			Site:       se.site,
			CapacityMB: se.gauge.Capacity(),
			UsedMB:     se.gauge.Level(),
			PeakMB:     se.gauge.Peak(),
			Files:      len(se.files),
			Evictions:  se.evictions,
			EvictedMB:  se.evictedMB,
			Down:       se.down,
		})
	}
	return out
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
