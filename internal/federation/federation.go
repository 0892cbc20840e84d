// Package federation federates several independently-configured simulated
// grids behind a single submission handle, extending the paper's
// single-grid enactment model to the multi-grid brokering scenario of
// Venugopal et al.'s Gridbus broker: a tenant that can dispatch to N
// infrastructures must weigh exactly the overheads the paper measures —
// serialized submission latency, batch-queue wait, stage-in — when
// choosing where each job goes.
//
// A Federation owns N grid.Grids (heterogeneous cluster counts, UI
// latencies, load factors, seeds) on one shared simulation engine and one
// shared replica catalog, so a workflow whose consecutive stages land on
// different grids still resolves its data dependencies. Both *Federation
// and its per-tenant handles (*Tenant) satisfy services.Submitter:
// wrapper-backed, grouped and batched services dispatch across grids
// transparently, and campaigns back whole multi-tenant runs with a
// federation (campaign.OnFederation).
//
// A pluggable broker Policy picks the target grid per submitted job:
// round-robin, least-backlog (instantaneous occupancy), or overhead-ranked
// — scoring each grid by EWMAs of its observed submission and queueing
// phases with an additive rank floor so an uncharacterized federation
// degrades to UI-backlog spreading instead of herding (see Ranked).
// Terminal
// failures may be re-brokered: a job that exhausts its retries on one grid
// is resubmitted to another (Config.Rebroker), the cross-grid analogue of
// the grid's own transparent resubmission.
//
// Accounting partitions exactly as in the single-grid tenancy model:
// every dispatched attempt is recorded once, per-grid stats
// (Grid.Overheads of each member) and per-tenant stats (Tenant.Overheads
// across grids) both partition the federation-level aggregates
// (Federation.Overheads).
//
// Everything runs inside the single-threaded engine, so federated runs are
// exactly as deterministic as solo ones: same configs, same seeds, same
// policy — same per-tenant makespans and per-grid dispatch counts (pinned
// by golden tests).
package federation

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

// GridSpec names and configures one member grid of a federation.
type GridSpec struct {
	// Name identifies the grid in views, telemetry and reports. Empty
	// names are auto-assigned "gridNN" by New.
	Name string
	// Config is the member grid's full infrastructure model. Members are
	// independent: cluster sets, overhead distributions, failure models
	// and seeds may all differ.
	Config grid.Config
}

// Config assembles a federation.
type Config struct {
	// Grids are the member infrastructures, in brokering order (policies
	// resolve ties towards lower indices).
	Grids []GridSpec
	// Policy picks the target grid per submission. Nil means Ranked().
	Policy Policy
	// Rebroker is the number of times a terminally failed job may be
	// resubmitted to a different grid before the failure is reported to
	// the caller (0 disables cross-grid resubmission). Jobs that failed
	// permanently for missing catalog inputs are never re-brokered — the
	// catalog is shared, so the file is missing everywhere.
	Rebroker int
	// EWMAAlpha is the smoothing factor of the per-grid overhead
	// telemetry (0 ≤ alpha ≤ 1); larger values track recent jobs more
	// aggressively. Zero means "use the default", 0.2 — an explicit
	// all-history mean (alpha → 0) is not expressible.
	EWMAAlpha float64
	// Links is the link model pricing replica movement across the
	// federation, attached to the shared catalog: it decides what a job
	// pays to stage inputs whose replicas live on another member grid,
	// and what the broker's locality-aware policies estimate that cost
	// to be. Nil means grid.DefaultWAN (cross-grid fetches pay a real
	// WAN link); pass grid.LocalLinks() to restore the location-blind
	// federation where cross-grid staging was free. A per-pair
	// grid.LinkMatrix is accepted like any other model.
	Links grid.LinkModel
	// WANStreams, when positive, makes the WAN fabric contended: a
	// capacity-limited shared channel (that many concurrent fetch legs)
	// is created per ordered member-grid pair and attached to the shared
	// catalog, so concurrent cross-grid stage-ins queue and stretch each
	// other instead of overlapping for free. Zero keeps the uncontended
	// pure-delay transfer model (the PR 4 behaviour).
	WANStreams int
	// Fabric optionally supplies a pre-built contended fabric (e.g. with
	// per-pair capacity overrides); it takes precedence over WANStreams.
	// The fabric must run on the federation's engine.
	Fabric *grid.Fabric
	// Outages schedules member-grid outage windows at construction time
	// (instants are relative to the engine clock at New). Windows of one
	// grid and one mode (full vs storage-only, see Outage.Storage) must
	// not overlap — each window's recovery is unconditional, so New
	// rejects overlapping (or never-recovering-then-followed) windows.
	// Outages can also be driven manually with SetDown/SetUp (or
	// SetStorageDown/SetStorageUp); mixing manual calls into a scheduled
	// window is legal but the window's boundaries still fire (a manual
	// SetDown inside a window is undone by the window's recovery).
	Outages []Outage
	// SECapacityMB, when positive, gives every member-grid storage
	// element — the grid-level site and each cluster's close SE — an
	// active capacity of that many megabytes, drained by the SEEviction
	// policy when replicas overflow it. Zero keeps storage passive and
	// unlimited (the pre-storage model, bit-identical goldens).
	SECapacityMB float64
	// SEEviction picks eviction victims on capacity overflow (only
	// consulted when SECapacityMB is positive). Nil means grid.EvictLRU().
	SEEviction grid.EvictionPolicy
	// MinReplicas, when > 1, arms the replica-repair loop: every
	// registered file is re-replicated onto additional member grids (via
	// Catalog.AddReplica, paying the link model's transfer time) until it
	// has that many live copies, both at registration (pre-staging) and
	// whenever an SE death or eviction drops a file below the floor.
	// Eviction also refuses to evict a replica of a file at or below the
	// floor. Zero or one disables repair.
	MinReplicas int
}

// Outage is one scheduled member-grid outage window: the named grid goes
// dark At after federation construction and recovers For later (For 0
// means it never recovers). While dark, the grid receives no brokered
// picks, its in-flight jobs fail with grid.ErrGridDown at their next
// lifecycle transition (and re-broker elsewhere under Config.Rebroker),
// and on recovery its smoothed telemetry is aged out so stale pre-outage
// observations cannot poison the ranking.
type Outage struct {
	// Grid names the member grid (GridSpec.Name, or the auto-assigned
	// "gridNN").
	Grid string
	// At is the outage start, relative to federation construction.
	At time.Duration
	// For is the outage duration; zero means the grid stays dark.
	For time.Duration
	// Storage restricts the outage to the grid's storage dimension: an
	// SE-only outage (grid.Grid.SetStorageDown) during which the grid
	// keeps computing and accepting work, but its replicas are
	// unreachable, nothing can stage in on it, and its completed jobs
	// cannot register outputs. Storage and full windows of one grid may
	// overlap — they are independent dimensions.
	Storage bool
}

// Telemetry is the federation's smoothed overhead view of one member
// grid, maintained from the terminal records of the jobs the federation
// dispatched there. It is the observational input of the Ranked policy.
type Telemetry struct {
	// Dispatched counts jobs the broker sent to this grid (re-brokered
	// arrivals included).
	Dispatched int
	// Observed counts completed jobs that updated the EWMAs.
	Observed int
	// Rebrokered counts jobs moved off this grid after it failed them
	// terminally.
	Rebrokered int
	// SubmitEWMA smooths the UI submission phase (Submitted→Accepted) of
	// completed jobs.
	SubmitEWMA time.Duration
	// QueueEWMA smooths the queueing phase (Matched→Started: batch-queue
	// wait plus LRMS dispatch) of completed jobs.
	QueueEWMA time.Duration
	// RemoteInMB accumulates the input bytes this grid's completed jobs
	// fetched over non-local links (the final attempts' JobRecord
	// accounting) — the broker's observed price of placing jobs away
	// from their data. Failed and resubmitted attempts are not observed;
	// for the bytes actually moved, read the member grid's
	// grid.Grid.RemoteInMB.
	RemoteInMB float64
	// WANWait accumulates the time this grid's completed jobs spent
	// queued on contended WAN channels (the final attempts'
	// JobRecord.WANWait); for the waits actually paid, attempts included,
	// read the member grid's grid.Grid.WANWait.
	WANWait time.Duration
	// FetchObserved counts the completed jobs with a non-zero nominal
	// remote fetch — the observations behind XferStretch.
	FetchObserved int
	// XferStretch is the smoothed ratio of observed to nominal WAN fetch
	// cost, (WANFetch+WANWait)/WANFetch EWMA'd over completed jobs whose
	// last attempt held WAN channels: exactly 1 on an uncontended
	// fabric, growing past 1 as concurrent transfers queue. The ratio is
	// taken over the cross-grid legs only — intra-grid remote fetches
	// never touch the channels, and folding their nominal time in would
	// dilute the congestion signal the broker applies to its
	// cross-grid-only XferEst term. Read it through Stretch(), which
	// supplies the no-observation default.
	XferStretch float64
}

// Stretch returns the grid's observed transfer-cost stretch factor: the
// XferStretch EWMA, or 1 before any remote fetch has been observed. The
// locality-aware Ranked policy multiplies its nominal XferEst term by it,
// which is how the broker learns observed (not nominal) transfer cost
// under channel contention while decaying to the nominal ranking exactly
// when the fabric is uncontended.
func (t Telemetry) Stretch() float64 {
	if t.FetchObserved == 0 {
		return 1
	}
	return t.XferStretch
}

// Federation is a set of member grids behind one brokered submission
// handle, bound to a single simulation engine and replica catalog.
type Federation struct {
	eng     *sim.Engine
	cfg     Config
	grids   []*grid.Grid
	names   []string
	policy  Policy
	alpha   float64
	catalog *grid.Catalog
	fabric  *grid.Fabric
	tenants map[string]*Tenant
	telem   []Telemetry
	// records holds every dispatched attempt in dispatch order, across
	// grids and tenants — the federation-level aggregate the per-grid and
	// per-tenant views partition.
	records []*grid.JobRecord
	views   []GridView // scratch, rebuilt per pick
	// planViews caches whether the policy consumes the views' affinity
	// signals (see affinityReader): stage planning per pick is pure
	// overhead for a policy that never reads it.
	planViews bool
	// repairing marks files with a replica-repair copy in flight, so one
	// below-floor file triggers one transfer at a time; repairs and
	// repairedMB account the copies that landed.
	repairing  map[string]bool
	repairs    int
	repairedMB float64
}

// New builds a federation of the configured grids on the engine, sharing
// one fresh replica catalog across all members.
func New(eng *sim.Engine, cfg Config) (*Federation, error) {
	if len(cfg.Grids) == 0 {
		return nil, errors.New("federation: config has no grids")
	}
	if cfg.Rebroker < 0 {
		return nil, errors.New("federation: negative Rebroker")
	}
	if cfg.EWMAAlpha < 0 || cfg.EWMAAlpha > 1 {
		return nil, fmt.Errorf("federation: EWMAAlpha %v outside [0, 1] (0 means the 0.2 default)", cfg.EWMAAlpha)
	}
	if cfg.SECapacityMB < 0 {
		return nil, errors.New("federation: negative SECapacityMB")
	}
	if cfg.MinReplicas < 0 {
		return nil, errors.New("federation: negative MinReplicas")
	}
	f := &Federation{
		eng:     eng,
		cfg:     cfg,
		policy:  cfg.Policy,
		alpha:   cfg.EWMAAlpha,
		catalog: grid.NewCatalog(),
		tenants: make(map[string]*Tenant),
		telem:   make([]Telemetry, len(cfg.Grids)),
		views:   make([]GridView, len(cfg.Grids)),
	}
	if f.policy == nil {
		f.policy = Ranked()
	}
	// Unknown policies are assumed to read the affinity signals; built-in
	// ones declare themselves.
	f.planViews = true
	if ar, ok := f.policy.(affinityReader); ok {
		f.planViews = ar.readsAffinity()
	}
	if f.alpha == 0 {
		f.alpha = 0.2
	}
	links := cfg.Links
	if links == nil {
		links = grid.DefaultWAN()
	}
	f.catalog.SetLinks(links)
	f.fabric = cfg.Fabric
	if f.fabric != nil && f.fabric.Engine() != eng {
		return nil, errors.New("federation: Config.Fabric runs on a different engine")
	}
	if f.fabric == nil && cfg.WANStreams > 0 {
		f.fabric = grid.NewFabric(eng, cfg.WANStreams)
	}
	f.catalog.SetFabric(f.fabric)
	seen := make(map[string]bool, len(cfg.Grids))
	for i, gs := range cfg.Grids {
		name := gs.Name
		if name == "" {
			name = fmt.Sprintf("grid%02d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("federation: duplicate grid name %q", name)
		}
		seen[name] = true
		if len(gs.Config.Clusters) == 0 {
			return nil, fmt.Errorf("federation: grid %q has no clusters", name)
		}
		// The member grid carries the federation-resolved name as its data
		// location: its jobs' outputs become replicas at Site{name,
		// cluster}, which is what makes cross-grid staging visible to the
		// link model.
		gs.Config.Name = name
		f.names = append(f.names, name)
		f.grids = append(f.grids, grid.NewWithCatalog(eng, gs.Config, f.catalog))
		if cfg.SECapacityMB > 0 {
			// Active storage: the grid-level SE (where repair copies and
			// campaign-registered inputs land) and each cluster's close SE
			// (where job outputs land) each get the configured capacity.
			f.catalog.ConfigureSE(grid.Site{Grid: name}, cfg.SECapacityMB, cfg.SEEviction)
			for _, cc := range gs.Config.Clusters {
				f.catalog.ConfigureSE(grid.Site{Grid: name, Cluster: cc.Name}, cfg.SECapacityMB, cfg.SEEviction)
			}
		}
	}
	if cfg.MinReplicas > 1 {
		f.repairing = make(map[string]bool)
		f.catalog.SetReplicaFloor(cfg.MinReplicas)
		f.catalog.SetRepairHook(f.repairNeeded)
	}
	type boundOutage struct {
		idx int
		o   Outage
	}
	scheduled := make([]boundOutage, 0, len(cfg.Outages))
	perGrid := make(map[string][]Outage, len(cfg.Outages))
	for _, o := range cfg.Outages {
		idx := -1
		for i, name := range f.names {
			if name == o.Grid {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("federation: outage names unknown grid %q", o.Grid)
		}
		if o.At < 0 || o.For < 0 {
			return nil, fmt.Errorf("federation: outage of %q has a negative instant or duration", o.Grid)
		}
		// Windows of one grid and mode must not overlap: a window's
		// scheduled recovery is unconditional, so an overlap would let
		// the earlier window's SetUp revive a grid a later (or
		// never-ending) window still holds dark. Full and storage-only
		// windows are independent dimensions and may overlap freely.
		key := o.Grid
		if o.Storage {
			key += "\x00storage"
		}
		for _, prev := range perGrid[key] {
			lo, hi := prev, o
			if hi.At < lo.At {
				lo, hi = hi, lo
			}
			if lo.For == 0 || lo.At+lo.For > hi.At {
				return nil, fmt.Errorf("federation: outage windows of %q overlap", o.Grid)
			}
		}
		perGrid[key] = append(perGrid[key], o)
		scheduled = append(scheduled, boundOutage{idx, o})
	}
	// Schedule in chronological window order: same-instant events fire in
	// schedule order, so a window that starts exactly when an earlier one
	// ends must have its SetDown scheduled after that window's SetUp —
	// otherwise the recovery would fire second and cancel the new window.
	sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].o.At < scheduled[j].o.At })
	for _, b := range scheduled {
		idx, o := b.idx, b.o
		if o.Storage {
			eng.Schedule(sim.Time(o.At), func() { f.SetStorageDown(idx) })
			if o.For > 0 {
				eng.Schedule(sim.Time(o.At+o.For), func() { f.SetStorageUp(idx) })
			}
			continue
		}
		eng.Schedule(sim.Time(o.At), func() { f.SetDown(idx) })
		if o.For > 0 {
			eng.Schedule(sim.Time(o.At+o.For), func() { f.SetUp(idx) })
		}
	}
	return f, nil
}

// Engine returns the shared simulation engine.
func (f *Federation) Engine() *sim.Engine { return f.eng }

// Catalog returns the replica catalog shared by every member grid.
// Together with Submit it makes *Federation satisfy services.Submitter.
func (f *Federation) Catalog() *grid.Catalog { return f.catalog }

// Policy returns the broker policy in use.
func (f *Federation) Policy() Policy { return f.policy }

// Size returns the number of member grids.
func (f *Federation) Size() int { return len(f.grids) }

// Grid returns member grid i (configuration order).
func (f *Federation) Grid(i int) *grid.Grid { return f.grids[i] }

// GridName returns the name of member grid i.
func (f *Federation) GridName(i int) string { return f.names[i] }

// Telemetry returns the federation's current overhead view of member
// grid i.
func (f *Federation) Telemetry(i int) Telemetry { return f.telem[i] }

// Fabric returns the contended WAN fabric attached to the shared catalog
// (nil when cross-grid fetches are uncontended pure delays).
func (f *Federation) Fabric() *grid.Fabric { return f.fabric }

// SetDown takes member grid i dark: it stops receiving brokered picks
// and every job attempt still in its pipeline fails with
// grid.ErrGridDown at its next lifecycle transition, to be re-brokered
// elsewhere under Config.Rebroker. Idempotent.
func (f *Federation) SetDown(i int) { f.grids[i].SetDown(true) }

// SetUp recovers member grid i from an outage: it becomes eligible for
// brokering again and its smoothed telemetry is aged out — the overhead
// EWMAs, the transfer-stretch observations and their counters are reset,
// so the recovered grid is re-characterized from fresh observations
// (degrading to the rank floor's backlog spreading until they arrive)
// instead of trusting stale pre-outage numbers. Cumulative counters
// (Dispatched, Rebrokered, RemoteInMB, WANWait) are kept. Calling SetUp
// on a grid that is not down is a no-op.
func (f *Federation) SetUp(i int) {
	if !f.grids[i].Down() {
		return
	}
	f.grids[i].SetDown(false)
	t := &f.telem[i]
	t.Observed = 0
	t.SubmitEWMA, t.QueueEWMA = 0, 0
	t.FetchObserved, t.XferStretch = 0, 0
}

// Down reports whether member grid i is currently dark.
func (f *Federation) Down(i int) bool { return f.grids[i].Down() }

// SetStorageDown takes member grid i's storage dimension dark — an
// SE-only outage: the grid keeps computing and accepting brokered work,
// but its replicas are unreachable (consumers elsewhere re-stage from
// surviving copies), nothing can stage in on it, and its completed jobs
// cannot register outputs. Storage-aware policies stop picking it for
// jobs that need staging. Idempotent.
func (f *Federation) SetStorageDown(i int) { f.grids[i].SetStorageDown(true) }

// SetStorageUp recovers member grid i's storage dimension: its replicas
// become fetchable again and in-flight re-staging backoffs find them on
// their next round. Unlike SetUp, no telemetry is aged — the middleware
// never went dark, so its overhead characterization stayed valid.
// Idempotent.
func (f *Federation) SetStorageUp(i int) { f.grids[i].SetStorageDown(false) }

// StorageDown reports whether member grid i's storage dimension is dark
// (true during both SE-only and full outages).
func (f *Federation) StorageDown(i int) bool { return f.grids[i].StorageDown() }

// Repairs returns the number of replica-repair copies that landed (see
// Config.MinReplicas).
func (f *Federation) Repairs() int { return f.repairs }

// RepairedMB returns the megabytes moved by landed replica-repair copies.
func (f *Federation) RepairedMB() float64 { return f.repairedMB }

// TotalNodes returns the worker-node capacity across all member grids.
func (f *Federation) TotalNodes() int {
	n := 0
	for _, g := range f.grids {
		n += g.TotalNodes()
	}
	return n
}

// Records returns every job attempt the federation dispatched, in
// dispatch order across grids and tenants. Records of in-flight jobs are
// included and still mutating. A job re-brokered after a terminal failure
// appears once per grid it was tried on; each attempt is accounted to the
// grid that ran it, which is what keeps per-grid and federation-level
// statistics partition-consistent.
func (f *Federation) Records() []*grid.JobRecord { return f.records }

// Overheads computes overhead statistics over every job dispatched
// through the federation. Per-grid stats (Grid.Overheads of each member)
// and per-tenant stats (Tenant.Overheads) both partition these aggregates:
// job, failure and resubmission counts sum to the federation's.
func (f *Federation) Overheads() grid.OverheadStats {
	return grid.OverheadsOf(f.records)
}

// Phases computes the mean per-phase latencies over the federation's
// completed jobs.
func (f *Federation) Phases() grid.PhaseStats {
	return grid.PhasesOf(f.records)
}

// Submit enters a job under the default (anonymous) tenant: the broker
// policy picks a member grid and the job is submitted there. done fires
// exactly once, in virtual time, at the job's terminal state; if the
// chosen grid fails the job terminally and Config.Rebroker allows, the
// job is transparently resubmitted to another grid first, so done only
// sees the final outcome. The returned record is the first attempt's
// (terminal state must be read from the callback's record — a re-brokered
// job's final record is a different one, on a different grid).
func (f *Federation) Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	return f.submit("", spec, done)
}

func (f *Federation) submit(tenant string, spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	return f.dispatch(tenant, spec, done, f.pick(spec, -1), f.cfg.Rebroker)
}

// pick rebuilds the policy's views for this job and asks the policy for a
// target grid, validating the answer (an out-of-range pick is a policy bug
// and panics rather than silently misrouting). Views carry the job's
// data-affinity signals: for each grid, the bytes of the job's inputs
// already resident there and the estimated serialized fetch time of the
// rest under the catalog's link model — which is also exactly what
// re-brokering consults, so moving a failed job to another grid weighs the
// re-staging it would cause. Stage planning is skipped entirely when the
// policy declared it never reads the signals (see affinityReader) or the
// link model is the all-local one (every estimate is provably zero); a
// plan with a missing input leaves the signals zero on every view, so
// order-dependent partial sums never steer a doomed job's placement —
// the same contract as the in-grid cluster ranker's fetch estimate.
func (f *Federation) pick(spec grid.JobSpec, exclude int) int {
	plan := f.planViews && len(spec.Inputs) > 0 && !f.catalog.AllLocal()
	for i, g := range f.grids {
		f.views[i] = GridView{
			Index: i, Name: f.names[i], Down: g.Down(),
			StorageDown: g.StorageDown(), Load: g.Load(), Telemetry: f.telem[i],
		}
		if plan && !f.views[i].Down {
			p := f.catalog.Plan(spec.Inputs, grid.Site{Grid: f.names[i]})
			if p.Missing == "" && p.Unavailable == "" {
				f.views[i].AffinityMB = p.LocalMB
				f.views[i].XferEst = p.RemoteTime
				f.views[i].FragileEst = p.FragileTime
			}
		}
	}
	idx := f.policy.Pick(f.views, exclude)
	if idx < 0 || idx >= len(f.grids) {
		panic(fmt.Sprintf("federation: policy %s picked grid %d of %d", f.policy.Name(), idx, len(f.grids)))
	}
	if f.grids[idx].Down() {
		// Safety net over the policy contract: a dark grid must never
		// receive work while an alternative is up. Redirect
		// deterministically to the first up grid, preferring one that is
		// not the excluded failure source (scanUp's tier order).
		if j := scanUp(f.views, 0, exclude); j >= 0 {
			idx = j
		}
	}
	return idx
}

// dispatch submits one attempt to member grid idx and arms the re-broker:
// on terminal failure with retries left, the policy picks another grid
// (excluding the one that just failed) and the spec is resubmitted there
// as a fresh job.
func (f *Federation) dispatch(tenant string, spec grid.JobSpec, done func(*grid.JobRecord), idx, retries int) *grid.JobRecord {
	f.telem[idx].Dispatched++
	rec := f.grids[idx].Tenant(tenant).Submit(spec, func(r *grid.JobRecord) {
		f.observe(idx, r)
		if r.Status == grid.StatusFailed && retries > 0 && len(f.grids) > 1 && rebrokerable(r) {
			f.telem[idx].Rebrokered++
			f.dispatch(tenant, spec, done, f.pick(spec, idx), retries-1)
			return
		}
		done(r)
	})
	f.records = append(f.records, rec)
	return rec
}

// rebrokerable reports whether another grid could plausibly run the job:
// retry exhaustion is worth re-brokering (the failure was stochastic), a
// missing catalog input is not (the catalog is shared — the file is
// missing on every grid), and neither is a lost replica set (the data is
// just as unreachable from every other grid, and the stage-in retry
// budget already waited out any plausible recovery).
func rebrokerable(r *grid.JobRecord) bool {
	return !errors.Is(r.Err, grid.ErrNoSuchFile) && !errors.Is(r.Err, grid.ErrReplicaLost)
}

// observe folds a terminal record into the grid's overhead telemetry.
// Only completed jobs carry trustworthy phase timestamps; failures update
// nothing (their own cost surfaces through re-brokering counts and the
// occupancy term instead).
func (f *Federation) observe(idx int, r *grid.JobRecord) {
	if r.Status != grid.StatusCompleted {
		return
	}
	t := &f.telem[idx]
	t.RemoteInMB += r.RemoteInMB
	t.WANWait += r.WANWait
	if r.WANFetch > 0 {
		// Observed vs nominal cost of the WAN legs alone: on an
		// uncontended fabric WANWait is zero and the ratio is exactly 1,
		// so the stretch EWMA stays 1 and the locality-aware ranking is
		// unchanged. Without a fabric WANFetch is never set and the
		// stretch stays at its no-observation default of 1.
		ratio := float64(r.WANFetch+r.WANWait) / float64(r.WANFetch)
		if t.FetchObserved == 0 {
			t.XferStretch = ratio
		} else {
			t.XferStretch = f.alpha*ratio + (1-f.alpha)*t.XferStretch
		}
		t.FetchObserved++
	}
	submit := time.Duration(r.Accepted - r.Submitted)
	queue := time.Duration(r.Started - r.Matched)
	if t.Observed == 0 {
		t.SubmitEWMA, t.QueueEWMA = submit, queue
	} else {
		t.SubmitEWMA = ewma(t.SubmitEWMA, submit, f.alpha)
		t.QueueEWMA = ewma(t.QueueEWMA, queue, f.alpha)
	}
	t.Observed++
}

func ewma(prev, obs time.Duration, alpha float64) time.Duration {
	return time.Duration(alpha*float64(obs) + (1-alpha)*float64(prev))
}

// Tenant is a named submission handle on a federation: the multi-grid
// analogue of grid.Tenant. Jobs submitted through it are brokered across
// the member grids and tagged with the tenant's name on whichever grid
// they land, so the tenant's accounting spans grids while each member
// grid's fair-share gate still sees the tenant individually. Handles are
// memoized: Federation.Tenant returns the same *Tenant for the same name,
// so handle identity stands in for tenant identity (services.Grouped
// relies on this).
type Tenant struct {
	f    *Federation
	name string
}

// Tenant returns the submission handle for the named tenant, creating it
// on first use. The empty name is the default tenant Federation.Submit
// uses.
func (f *Federation) Tenant(name string) *Tenant {
	if t, ok := f.tenants[name]; ok {
		return t
	}
	t := &Tenant{f: f, name: name}
	f.tenants[name] = t
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Federation returns the underlying federation.
func (t *Tenant) Federation() *Federation { return t.f }

// Catalog returns the federation's shared replica catalog. Together with
// Submit it makes *Tenant satisfy services.Submitter.
func (t *Tenant) Catalog() *grid.Catalog { return t.f.catalog }

// Engine returns the shared simulation engine (part of campaign.Handle).
func (t *Tenant) Engine() *sim.Engine { return t.f.eng }

// Submit enters a job tagged with this tenant. Semantics are those of
// Federation.Submit; the only difference is the tenant tag carried onto
// whichever grid the broker picks.
func (t *Tenant) Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	return t.f.submit(t.name, spec, done)
}

// Records returns this tenant's job records across all member grids, in
// dispatch order. Records of in-flight jobs are included and still
// mutating.
func (t *Tenant) Records() []*grid.JobRecord {
	var out []*grid.JobRecord
	for _, r := range t.f.records {
		if r.Tenant == t.name {
			out = append(out, r)
		}
	}
	return out
}

// Overheads computes overhead statistics over this tenant's jobs only,
// across all member grids. The per-tenant statistics of all tenants
// partition the federation-level Federation.Overheads.
func (t *Tenant) Overheads() grid.OverheadStats {
	return grid.OverheadsOf(t.Records())
}

// Phases computes the mean per-phase latencies over this tenant's
// completed jobs, across all member grids.
func (t *Tenant) Phases() grid.PhaseStats {
	return grid.PhasesOf(t.Records())
}
