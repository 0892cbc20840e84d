// Package campaign runs multi-tenant enactment campaigns: M workflows,
// each with its own enactor and optimization options, contending for a
// shared infrastructure — the regime the paper's findings live in, where
// "the increasing load of the middleware services on a production
// infrastructure cannot be neglected" because many users submit at once.
// The infrastructure is a Site: one shared grid.Grid (OnGrid) or a
// multi-grid federation.Federation whose broker policy spreads each
// tenant's jobs across member grids (OnFederation). RunSite enacts a
// campaign on any site; StartSite is its incremental form.
//
// Each tenant gets its own core.Enactor (independent Options, its own
// workflow and input set) and a grid.Tenant submission handle; all
// enactors are driven by the one sim.Engine, so a campaign is exactly as
// deterministic as a solo run: same configuration and seed, same
// per-tenant makespans. The grid's fair-share gate drains tenants
// round-robin at the serialized UI, so one burst-submitting tenant delays
// the others by a bounded factor instead of starving them behind its whole
// burst (set grid.Config.StrictFIFOSubmit to compare against the
// tenancy-unaware FIFO).
//
// Tenants may opt into adaptive granularity: at a fixed virtual period the
// runner feeds the tenant's observed overhead, serial submission cost and
// remaining work into model.OptimalBatch and retunes the enactor's
// DataGroupSize mid-run — the paper's Sec. 5.5 "optimal strategy to adapt
// the jobs' granularity to the grid load", closed as a feedback loop.
//
// Caution: tenants share one replica catalog. Wrapper output names embed
// the executable name, so two tenants running descriptors with identical
// executable names would collide in the catalog; give each tenant's codes
// tenant-unique names (SyntheticChain does this automatically).
package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Handle is one tenant's view of the infrastructure a campaign enacts on:
// a submission target (services.Submitter, so wrapper-backed services
// created on the handle submit as the tenant) plus the tenant's own
// record partition and statistics, which is all the campaign layer ever
// reads — the adaptive-granularity loop in particular observes only this
// partition, never global infrastructure stats, so one tenant's burst
// cannot distort another's retuning. Both *grid.Tenant (shared single
// grid) and *federation.Tenant (brokered multi-grid) satisfy it.
type Handle interface {
	services.Submitter
	// Name returns the tenant's name.
	Name() string
	// Engine returns the simulation engine, for builders that create
	// tenant-local services.
	Engine() *sim.Engine
	// Records returns the tenant's job records, in submission order.
	Records() []*grid.JobRecord
	// Overheads computes overhead statistics over the tenant's jobs only.
	Overheads() grid.OverheadStats
	// Phases computes per-phase latency means over the tenant's completed
	// jobs only.
	Phases() grid.PhaseStats
}

// Site is the infrastructure a campaign enacts on: a provider of tenant
// handles plus the campaign-global aggregates the report carries. Wrap a
// single shared grid with OnGrid or a federation with OnFederation.
type Site interface {
	// Tenant returns the (memoized) handle for the named tenant.
	Tenant(name string) Handle
	// TotalNodes returns the site's worker-node capacity, the default
	// concurrency estimate for adaptive granularity.
	TotalNodes() int
	// UIBacklog returns the submissions accepted but not yet cleared by
	// the site's serialized UIs (summed across a federation's member
	// grids) — the congestion signal admission control gates arrivals on.
	UIBacklog() int
	// Overheads aggregates overhead statistics over every tenant's jobs.
	Overheads() grid.OverheadStats
	// Phases aggregates per-phase latency means over every tenant's
	// completed jobs.
	Phases() grid.PhaseStats
}

// OnGrid adapts one shared grid into a campaign Site.
func OnGrid(g *grid.Grid) Site { return gridSite{g} }

type gridSite struct{ g *grid.Grid }

func (s gridSite) Tenant(name string) Handle     { return s.g.Tenant(name) }
func (s gridSite) TotalNodes() int               { return s.g.TotalNodes() }
func (s gridSite) UIBacklog() int                { return s.g.PendingSubmits() }
func (s gridSite) Overheads() grid.OverheadStats { return s.g.Overheads() }
func (s gridSite) Phases() grid.PhaseStats       { return s.g.Phases() }

// OnFederation adapts a multi-grid federation into a campaign Site: each
// tenant's jobs are brokered across the member grids by the federation's
// policy.
func OnFederation(f *federation.Federation) Site { return fedSite{f} }

type fedSite struct{ f *federation.Federation }

func (s fedSite) Tenant(name string) Handle { return s.f.Tenant(name) }
func (s fedSite) TotalNodes() int           { return s.f.TotalNodes() }
func (s fedSite) UIBacklog() int {
	n := 0
	for i := 0; i < s.f.Size(); i++ {
		n += s.f.Grid(i).PendingSubmits()
	}
	return n
}
func (s fedSite) Overheads() grid.OverheadStats { return s.f.Overheads() }
func (s fedSite) Phases() grid.PhaseStats       { return s.f.Phases() }

// BuildFunc constructs one tenant's workflow and input set against the
// tenant's submission handle: wrapper-backed services created on the
// handle submit as that tenant, which is what keeps per-tenant accounting
// disjoint. The builder may register the tenant's input files in the
// shared catalog (via t.Catalog()).
type BuildFunc func(t Handle) (*workflow.Workflow, map[string][]string, error)

// AdaptiveGranularity opts a tenant into mid-campaign job-granularity
// retuning.
type AdaptiveGranularity struct {
	// Interval is the virtual period between retuning decisions (required
	// > 0). The first decision happens one interval after the tenant's
	// arrival, once some overhead has been observed.
	Interval time.Duration
	// Slots is the concurrency the granularity model assumes the grid
	// grants this tenant. Zero means an equal share of the worker nodes
	// (total nodes / number of tenants).
	Slots int
	// MinBatch/MaxBatch clamp the chosen batch size. Zero means
	// unclamped.
	MinBatch, MaxBatch int
}

// TenantSpec describes one tenant of a campaign.
type TenantSpec struct {
	// Name identifies the tenant; it must be unique and non-empty.
	Name string
	// Arrival is when the tenant starts submitting, relative to the
	// campaign start — arrival waves are staggered Arrivals.
	Arrival time.Duration
	// Opts are the tenant's enactor options (its optimization mix).
	Opts core.Options
	// Build constructs the tenant's workflow against its submission
	// handle.
	Build BuildFunc
	// Adapt, when non-nil, enables adaptive granularity for this tenant.
	Adapt *AdaptiveGranularity
}

// Config assembles a campaign.
type Config struct {
	// Grid is the shared infrastructure model. Zero value:
	// grid.DefaultConfig.
	Grid    grid.Config
	Tenants []TenantSpec
	// Admission gates tenant arrivals on the grid's UI backlog. The zero
	// value disables admission control.
	Admission Admission
}

// Admission is the arrival-gating policy of a campaign: a tenant arriving
// while the site's UI backlog (Site.UIBacklog) exceeds MaxUIBacklog is
// held back and re-checked every Retry until the backlog drains —
// protecting the tenants already running from yet another burst landing
// on a saturated serialized UI. The zero value disables admission
// control.
type Admission struct {
	// MaxUIBacklog is the UI-backlog threshold above which arrivals are
	// held back (zero disables gating).
	MaxUIBacklog int
	// Retry is the re-check period for held-back tenants (zero means
	// 30 s).
	Retry time.Duration
	// MaxDelay bounds how long a tenant may be held back: once it has
	// waited this long and the backlog is still above threshold, the
	// tenant is rejected with ErrAdmissionRejected instead of delayed
	// further. Zero means tenants are delayed indefinitely (they always
	// start eventually — the backlog drains as running tenants finish).
	MaxDelay time.Duration
}

// ErrAdmissionRejected reports a tenant turned away by admission control:
// it waited Admission.MaxDelay and the UI backlog still exceeded the
// threshold.
var ErrAdmissionRejected = errors.New("campaign: tenant rejected by admission control")

// Adaptation records one mid-campaign granularity retuning decision.
type Adaptation struct {
	At        time.Duration // decision instant, relative to the campaign start
	Batch     int           // DataGroupSize chosen
	Predicted time.Duration // model-predicted remaining makespan at that batch
	Overhead  time.Duration // observed mean overhead fed into the model
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	Name    string
	Arrival time.Duration
	// Finish is the virtual instant (relative to the campaign start) the
	// tenant's execution reached a terminal state; Makespan is
	// Finish − Arrival (zero if the run failed or stalled).
	Finish   time.Duration
	Makespan time.Duration
	Result   *core.Result
	Err      error
	// AdmissionDelay is how long admission control held the tenant back
	// beyond its specified Arrival before letting it start (zero without
	// admission control or when the gate was clear).
	AdmissionDelay time.Duration
	// Overheads and Phases cover this tenant's jobs only; across tenants
	// they partition the global grid statistics.
	Overheads   grid.OverheadStats
	Phases      grid.PhaseStats
	Adaptations []Adaptation
}

// Report is the outcome of a campaign.
type Report struct {
	// Tenants holds per-tenant results in specification order.
	Tenants []TenantResult
	// Makespan is the campaign span: the latest tenant finish instant.
	Makespan time.Duration
	// Global aggregates every job of every tenant, as Grid.Overheads sees
	// them.
	Global       grid.OverheadStats
	GlobalPhases grid.PhaseStats
}

// Run builds a fresh engine and grid from cfg and enacts all tenants on
// them through RunSite. Tenant-level failures (a failing service, a
// stalled workflow) are reported per tenant, not as a Run error; Run
// errors are configuration problems.
func Run(cfg Config) (*Report, error) {
	if reflect.DeepEqual(cfg.Grid, grid.Config{}) {
		cfg.Grid = grid.DefaultConfig()
	} else if len(cfg.Grid.Clusters) == 0 {
		// A partially-filled config with no clusters is almost certainly a
		// mistake; silently substituting DefaultConfig would discard the
		// caller's seed and gate policy.
		return nil, fmt.Errorf("campaign: grid config has no clusters (leave Grid entirely zero for the default grid)")
	}
	eng := sim.NewEngine()
	return RunSite(eng, OnGrid(grid.New(eng, cfg.Grid)), cfg.Tenants, cfg.Admission)
}

// tenantRun is the mutable state of one tenant during a campaign.
type tenantRun struct {
	spec        *TenantSpec
	tenant      Handle
	en          *core.Enactor
	inputs      map[string][]string
	res         *core.Result
	err         error
	finished    bool
	finish      sim.Time
	admitDelay  time.Duration
	adaptations []Adaptation
}

// RunSite enacts the tenants on an existing engine and site — a shared
// grid (OnGrid) or a federation (OnFederation) — stepping the engine
// until every tenant reaches a terminal state (or the event queue drains,
// which marks the unfinished tenants as stalled).
//
// adm gates arrivals (the zero Admission disables gating): a tenant whose
// arrival instant finds the site's UI backlog above adm.MaxUIBacklog is
// held back and re-checked every adm.Retry, starting only once the
// backlog has drained below the threshold (or rejected with
// ErrAdmissionRejected after adm.MaxDelay of waiting). The tenant's
// Makespan still counts from its specified Arrival, so admission delay
// shows up honestly in the delayed tenant's own numbers while the
// protected tenants' overheads improve.
func RunSite(eng *sim.Engine, site Site, specs []TenantSpec, adm Admission) (*Report, error) {
	x, err := StartSite(eng, site, specs, adm)
	if err != nil {
		return nil, err
	}
	for !x.Done() && eng.Step() {
	}
	return x.Report(), nil
}

// Execution is a campaign in flight: every tenant arrival, admission
// re-check and adaptive tick has been scheduled on the engine by
// StartSite, but the engine itself is driven by the caller — one Step at
// a time, in paced RunUntil windows, or to completion. It is the
// incremental form of RunSite that long-running drivers (the
// online broker daemon) interleave with external event injection.
type Execution struct {
	eng          *sim.Engine
	site         Site
	start        sim.Time
	runners      []*tenantRun
	remaining    int
	pendingTicks int // adapt ticks currently scheduled, across all tenants
}

// TenantStatus is one tenant's live progress view, cheap enough for a
// telemetry scrape: terminal results and statistics stay with Report.
type TenantStatus struct {
	// Name is the tenant's name.
	Name string
	// Arrival is the tenant's specified arrival, relative to the campaign
	// start.
	Arrival time.Duration
	// Finished reports whether the tenant reached a terminal state.
	Finished bool
	// Finish is the terminal instant relative to the campaign start (zero
	// while the tenant is still running).
	Finish time.Duration
	// Err is the tenant's terminal error, if any (nil while running or on
	// success).
	Err error
}

// Done reports whether every tenant has reached a terminal state.
func (x *Execution) Done() bool { return x.remaining == 0 }

// Remaining reports how many tenants have not yet reached a terminal
// state.
func (x *Execution) Remaining() int { return x.remaining }

// Tenants returns the live per-tenant progress, in specification order.
func (x *Execution) Tenants() []TenantStatus {
	out := make([]TenantStatus, len(x.runners))
	for i, r := range x.runners {
		st := TenantStatus{Name: r.spec.Name, Arrival: r.spec.Arrival, Finished: r.finished, Err: r.err}
		if r.finished {
			st.Finish = time.Duration(r.finish - x.start)
		}
		out[i] = st
	}
	return out
}

// Report renders the campaign outcome. Tenants that have not reached a
// terminal state are reported as stalled, so call it once Done() — or
// once the engine has drained, which is what stalling means.
func (x *Execution) Report() *Report {
	rep := &Report{Tenants: make([]TenantResult, len(x.runners))}
	for i, r := range x.runners {
		tr := TenantResult{
			Name:           r.spec.Name,
			Arrival:        r.spec.Arrival,
			Result:         r.res,
			Err:            r.err,
			AdmissionDelay: r.admitDelay,
			Overheads:      r.tenant.Overheads(),
			Phases:         r.tenant.Phases(),
			Adaptations:    r.adaptations,
		}
		if !r.finished {
			tr.Err = fmt.Errorf("campaign: tenant %s: %w", r.spec.Name, core.ErrStalled)
		} else {
			tr.Finish = time.Duration(r.finish - x.start)
			if r.err == nil {
				tr.Makespan = tr.Finish - tr.Arrival
			}
		}
		if tr.Finish > rep.Makespan {
			rep.Makespan = tr.Finish
		}
		rep.Tenants[i] = tr
	}
	rep.Global = x.site.Overheads()
	rep.GlobalPhases = x.site.Phases()
	return rep
}

// StartSite schedules a campaign on the engine without driving it: every
// tenant's arrival (behind the admission gate) and adaptive-granularity
// loop is armed, and the returned Execution tracks progress as the
// caller steps the engine. RunSite is exactly StartSite followed
// by stepping until Done and a Report; incremental drivers interleave
// their own events — external submissions, outage commands — between
// steps instead.
func StartSite(eng *sim.Engine, site Site, specs []TenantSpec, adm Admission) (*Execution, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaign: no tenants")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		ts := &specs[i]
		if ts.Name == "" {
			return nil, fmt.Errorf("campaign: tenant %d has an empty name", i)
		}
		if seen[ts.Name] {
			return nil, fmt.Errorf("campaign: duplicate tenant name %q", ts.Name)
		}
		seen[ts.Name] = true
		if ts.Build == nil {
			return nil, fmt.Errorf("campaign: tenant %q has no workflow builder", ts.Name)
		}
		if ts.Arrival < 0 {
			return nil, fmt.Errorf("campaign: tenant %q has a negative arrival", ts.Name)
		}
		if ts.Adapt != nil && ts.Adapt.Interval <= 0 {
			return nil, fmt.Errorf("campaign: tenant %q has adaptive granularity without a positive interval", ts.Name)
		}
	}

	x := &Execution{
		eng:       eng,
		site:      site,
		start:     eng.Now(),
		runners:   make([]*tenantRun, len(specs)),
		remaining: len(specs),
	}
	for i := range specs {
		ts := &specs[i]
		th := site.Tenant(ts.Name)
		wf, inputs, err := ts.Build(th)
		if err != nil {
			return nil, fmt.Errorf("campaign: tenant %s: %w", ts.Name, err)
		}
		en, err := core.New(eng, wf, ts.Opts)
		if err != nil {
			return nil, fmt.Errorf("campaign: tenant %s: %w", ts.Name, err)
		}
		r := &tenantRun{spec: ts, tenant: th, en: en, inputs: inputs}
		x.runners[i] = r
		// Arrivals are relative to the campaign start (the engine's
		// current instant), so RunSite works on an engine whose clock has
		// already advanced.
		retry := adm.Retry
		if retry <= 0 {
			retry = 30 * time.Second
		}
		arrival := x.start + sim.Time(ts.Arrival)
		var begin func()
		begin = func() {
			if adm.MaxUIBacklog > 0 && site.UIBacklog() > adm.MaxUIBacklog {
				waited := time.Duration(eng.Now() - arrival)
				if adm.MaxDelay > 0 && waited >= adm.MaxDelay {
					r.err = fmt.Errorf("campaign: tenant %s: %w after %v", r.spec.Name, ErrAdmissionRejected, waited)
					r.finished, r.finish = true, eng.Now()
					x.remaining--
					return
				}
				// Held back: the backlog only moves when a UI event fires,
				// so the retry tick always finds progress to observe.
				eng.Schedule(sim.Time(retry), begin)
				return
			}
			r.admitDelay = time.Duration(eng.Now() - arrival)
			err := r.en.Start(r.inputs, func(res *core.Result, err error) {
				r.res, r.err = res, err
				r.finished = true
				r.finish = eng.Now()
				x.remaining--
			})
			if err != nil && !r.finished {
				r.err, r.finished, r.finish = err, true, eng.Now()
				x.remaining--
			}
			if r.spec.Adapt != nil && !r.finished {
				scheduleAdapt(eng, site, r, len(specs), x.start, &x.pendingTicks)
			}
		}
		eng.Schedule(sim.Time(ts.Arrival), begin)
	}
	return x, nil
}

// scheduleAdapt installs the tenant's periodic granularity-retuning loop.
// pendingTicks counts the campaign's scheduled ticks across all tenants:
// a tick only re-arms while events other than the campaign's own ticks
// are pending, so a stalled tenant's loop cannot keep the engine alive
// forever (RunSite would otherwise never see the queue drain and never
// report the stall).
func scheduleAdapt(eng *sim.Engine, site Site, r *tenantRun, nTenants int, campaignStart sim.Time, pendingTicks *int) {
	var tick func()
	arm := func() {
		*pendingTicks++
		eng.Schedule(sim.Time(r.spec.Adapt.Interval), tick)
	}
	tick = func() {
		*pendingTicks--
		if r.finished {
			return
		}
		if a, ok := retune(eng, site, r, nTenants, campaignStart); ok {
			r.adaptations = append(r.adaptations, a)
		}
		// Pending() excludes this already-fired tick; if nothing beyond
		// the campaign's other adapt ticks remains, no event can ever
		// complete this tenant — stop re-arming and let the engine drain.
		if eng.Pending() > *pendingTicks {
			arm()
		}
	}
	arm()
}

// retune makes one granularity decision from observed behaviour: the
// tenant's mean overhead and serial submission cost so far, the mean
// on-node time of its completed jobs, and the enactor's remaining
// statically-expected invocations, fed into the Sec. 5.4 batching model.
// It reports false when there is nothing to observe or nothing left to
// retune.
func retune(eng *sim.Engine, site Site, r *tenantRun, nTenants int, campaignStart sim.Time) (Adaptation, bool) {
	ad := r.spec.Adapt
	jobs, overhead, submit, compute := observe(r.tenant)
	if jobs == 0 {
		return Adaptation{}, false
	}
	finished, expected, known := r.en.Progress()
	if !known {
		return Adaptation{}, false
	}
	remaining := expected - finished
	if remaining <= 0 {
		return Adaptation{}, false
	}
	slots := ad.Slots
	if slots <= 0 {
		slots = site.TotalNodes() / nTenants
		if slots < 1 {
			slots = 1
		}
	}
	p := model.GranularityParams{
		Overhead:     overhead,
		SubmitSerial: submit,
		Runtime:      compute,
		Items:        remaining,
		Slots:        slots,
	}
	k, pred := model.OptimalBatch(p)
	if ad.MinBatch > 1 && k < ad.MinBatch {
		k = ad.MinBatch
	}
	if ad.MaxBatch > 0 && k > ad.MaxBatch {
		k = ad.MaxBatch
	}
	// Only actual changes are decisions worth applying and recording; a
	// stable optimum would otherwise append an identical Adaptation every
	// interval for the rest of the campaign.
	if cur := r.en.Options().DataGroupSize; k == cur || (k <= 1 && cur <= 1) {
		return Adaptation{}, false
	}
	r.en.SetDataGroupSize(k)
	return Adaptation{
		At:        time.Duration(eng.Now() - campaignStart),
		Batch:     k,
		Predicted: pred,
		Overhead:  overhead,
	}, true
}

// observe scans the tenant's own record partition once for its completed
// jobs, returning their count and mean grid overhead, UI submit phase and
// on-node span (compute plus output staging) — the three observations the
// granularity model feeds on, without the three separate sweeps of
// Overheads/Phases. Reading through the handle (not global infrastructure
// stats) matters twice over: on a shared grid it keeps a bursty
// co-tenant's inflated overheads out of this tenant's retuning, and on a
// federation a single grid's record list would miss the jobs the broker
// sent to other grids. Handle.Records materializes the partition (one
// transient O(tenant jobs) slice per retune tick); in exchange the scan
// itself no longer walks every other tenant's records.
func observe(t Handle) (jobs int, overhead, submit, compute time.Duration) {
	for _, rec := range t.Records() {
		if rec.Status != grid.StatusCompleted {
			continue
		}
		jobs++
		overhead += rec.Overhead()
		submit += time.Duration(rec.Accepted - rec.Submitted)
		compute += time.Duration(rec.Completed - rec.InputDone)
	}
	if jobs == 0 {
		return 0, 0, 0, 0
	}
	n := time.Duration(jobs)
	return jobs, overhead / n, submit / n, compute / n
}
