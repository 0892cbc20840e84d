// Package campaign runs multi-tenant enactment campaigns: M workflows,
// each with its own enactor and optimization options, contending for a
// shared infrastructure — the regime the paper's findings live in, where
// "the increasing load of the middleware services on a production
// infrastructure cannot be neglected" because many users submit at once.
// The infrastructure is always a federation.Federation whose broker
// policy spreads each tenant's jobs across its member grids; the paper's
// single shared grid is a one-grid federation with grid.LocalLinks, which
// reproduces a bare grid.Grid bit for bit (TestOneGridCampaignGolden).
// RunSite enacts a campaign; StartSite is its incremental form.
//
// Each tenant gets its own core.Enactor (independent Options, its own
// workflow and input set) and a federation.Tenant submission handle; all
// enactors are driven by the one sim.Engine, so a campaign is exactly as
// deterministic as a solo run: same configuration and seed, same
// per-tenant makespans. Each grid's fair-share gate drains tenants
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
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Handle is what a tenant's workflow builder sees of the infrastructure:
// a submission target (services.Submitter, so wrapper-backed services
// created on the handle submit as the tenant), the tenant's name, and the
// engine for tenant-local services. The campaign passes each builder the
// tenant's *federation.Tenant; it is an interface so a caller can wrap
// the handle (to time submissions, say) without touching the campaign's
// own accounting, which always reads the federation tenant.
type Handle interface {
	services.Submitter
	// Name returns the tenant's name.
	Name() string
	// Engine returns the simulation engine, for builders that create
	// tenant-local services.
	Engine() *sim.Engine
}

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
	// unclamped. StartSite rejects negative Slots or bounds, and a
	// MinBatch above a non-zero MaxBatch.
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

// Admission is the arrival-gating policy of a campaign: a tenant arriving
// while the federation's UI backlog (Federation.PendingSubmits) exceeds
// MaxUIBacklog is held back and re-checked every Retry until the backlog
// drains — protecting the tenants already running from yet another burst
// landing on a saturated serialized UI. The zero value disables
// admission control.
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

// TenantResult is one tenant's outcome. It carries no per-invocation
// history (trace, provenance, sink items): a campaign releases each
// tenant's enactor once the tenant is terminal, so a Report stays small
// however long the campaign ran. Callers that need the history enact
// with core directly.
type TenantResult struct {
	Name    string
	Arrival time.Duration
	// Finish is the virtual instant (relative to the campaign start) the
	// tenant's execution reached a terminal state; Makespan is
	// Finish − Arrival (zero if the run failed or stalled).
	Finish   time.Duration
	Makespan time.Duration
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
	// Global aggregates every job of every tenant, as
	// Federation.Overheads sees them.
	Global       grid.OverheadStats
	GlobalPhases grid.PhaseStats
}

// tenantRun is the mutable state of one tenant during a campaign. en
// and inputs live only as long as they are needed: Start consumes the
// inputs, and a terminal tenant drops its enactor, so a finished tenant
// pins none of its workflow, trace or provenance.
type tenantRun struct {
	spec        *TenantSpec
	tenant      *federation.Tenant
	en          *core.Enactor
	inputs      map[string][]string
	err         error
	finished    bool
	finish      sim.Time
	admitDelay  time.Duration
	adaptations []Adaptation
}

// RunSite enacts the tenants on a federation — a shared grid is a
// one-grid federation — stepping the federation's engine until every
// tenant reaches a terminal state (or the event queue drains, which marks
// the unfinished tenants as stalled). Tenant-level failures (a failing
// service, a stalled workflow) are reported per tenant; RunSite errors
// are configuration problems.
//
// adm gates arrivals (the zero Admission disables gating): a tenant whose
// arrival instant finds the UI backlog above adm.MaxUIBacklog is
// held back and re-checked every adm.Retry, starting only once the
// backlog has drained below the threshold (or rejected with
// ErrAdmissionRejected after adm.MaxDelay of waiting). The tenant's
// Makespan still counts from its specified Arrival, so admission delay
// shows up honestly in the delayed tenant's own numbers while the
// protected tenants' overheads improve.
func RunSite(f *federation.Federation, specs []TenantSpec, adm Admission) (*Report, error) {
	x, err := StartSite(f, specs, adm)
	if err != nil {
		return nil, err
	}
	for !x.Done() && x.eng.Step() {
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
	fed          *federation.Federation
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
	rep.Global = x.fed.Overheads()
	rep.GlobalPhases = x.fed.Phases()
	return rep
}

// StartSite schedules a campaign on the engine without driving it: every
// tenant's arrival (behind the admission gate) and adaptive-granularity
// loop is armed, and the returned Execution tracks progress as the
// caller steps the engine. RunSite is exactly StartSite followed
// by stepping until Done and a Report; incremental drivers interleave
// their own events — external submissions, outage commands — between
// steps instead.
func StartSite(f *federation.Federation, specs []TenantSpec, adm Admission) (*Execution, error) {
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
		if ad := ts.Adapt; ad != nil {
			if ad.Interval <= 0 {
				return nil, fmt.Errorf("campaign: tenant %q has adaptive granularity without a positive interval", ts.Name)
			}
			if ad.Slots < 0 || ad.MinBatch < 0 || ad.MaxBatch < 0 {
				return nil, fmt.Errorf("campaign: tenant %q has negative adaptive slots or batch bounds", ts.Name)
			}
			if ad.MaxBatch > 0 && ad.MinBatch > ad.MaxBatch {
				return nil, fmt.Errorf("campaign: tenant %q has adaptive MinBatch %d above MaxBatch %d", ts.Name, ad.MinBatch, ad.MaxBatch)
			}
		}
	}

	eng := f.Engine()
	x := &Execution{
		eng:       eng,
		fed:       f,
		start:     eng.Now(),
		runners:   make([]*tenantRun, len(specs)),
		remaining: len(specs),
	}
	for i := range specs {
		ts := &specs[i]
		th := f.Tenant(ts.Name)
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
			if adm.MaxUIBacklog > 0 && f.PendingSubmits() > adm.MaxUIBacklog {
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
			err := r.en.Start(r.inputs, func(_ *core.Result, err error) {
				r.err, r.en = err, nil
				r.finished = true
				r.finish = eng.Now()
				x.remaining--
			})
			r.inputs = nil
			if err != nil && !r.finished {
				r.err, r.en, r.finished, r.finish = err, nil, true, eng.Now()
				x.remaining--
			}
			if r.spec.Adapt != nil && !r.finished {
				x.scheduleAdapt(r)
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
func (x *Execution) scheduleAdapt(r *tenantRun) {
	var tick func()
	arm := func() {
		x.pendingTicks++
		x.eng.Schedule(sim.Time(r.spec.Adapt.Interval), tick)
	}
	tick = func() {
		x.pendingTicks--
		if r.finished {
			return
		}
		if a, ok := x.retune(r); ok {
			r.adaptations = append(r.adaptations, a)
		}
		// Pending() excludes this already-fired tick; if nothing beyond
		// the campaign's other adapt ticks remains, no event can ever
		// complete this tenant — stop re-arming and let the engine drain.
		if x.eng.Pending() > x.pendingTicks {
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
func (x *Execution) retune(r *tenantRun) (Adaptation, bool) {
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
		slots = x.fed.TotalNodes() / len(x.runners)
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
		At:        time.Duration(x.eng.Now() - x.start),
		Batch:     k,
		Predicted: pred,
		Overhead:  overhead,
	}, true
}

// observe scans the tenant's own record partition once for its completed
// jobs, returning their count and mean grid overhead, UI submit phase and
// on-node span (compute plus output staging) — the three observations the
// granularity model feeds on, without the three separate sweeps of
// Overheads/Phases. Reading the tenant's partition (not global
// infrastructure stats) matters twice over: it keeps a bursty co-tenant's
// inflated overheads out of this tenant's retuning, and it spans every
// member grid the broker sent the tenant's jobs to.
func observe(t *federation.Tenant) (jobs int, overhead, submit, compute time.Duration) {
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
