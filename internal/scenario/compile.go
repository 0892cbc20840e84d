package scenario

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// World is a compiled scenario: a federation and a tenant roster bound
// to one engine, ready to enact.
type World struct {
	// Spec is the validated source scenario.
	Spec *Spec
	// Eng is the engine the world runs on.
	Eng *sim.Engine
	// Fed is the compiled federation (outage windows already scheduled).
	Fed *federation.Federation
	// Tenants is the expanded tenant roster in arrival-spec order.
	Tenants []campaign.TenantSpec
	// Admission is the campaign's arrival gate (zero when the spec has no
	// admission section).
	Admission campaign.Admission
	// Outages is the full outage schedule the federation was built with:
	// the spec's explicit windows plus the generated failure waves.
	Outages []federation.Outage
}

// Compile builds the scenario's world on the engine: member grids from
// their presets and overrides, the link topology and WAN fabric, the
// outage schedule (explicit windows plus generated failure waves),
// active storage, the broker, and the expanded tenant roster with
// generated arrivals and input corpora. Every random draw flows through
// streams forked from Spec.Seed in a fixed order, so compiling the same
// spec twice yields bit-identical worlds.
func Compile(eng *sim.Engine, s *Spec) (*World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rootSeed := s.Seed
	if rootSeed == 0 {
		rootSeed = 1
	}
	root := rng.New(rootSeed)
	names := s.GridNames()

	// Waves fork first so the outage schedule is independent of the
	// tenant roster shape.
	outages := make([]federation.Outage, 0, len(s.Outages))
	for _, o := range s.Outages {
		outages = append(outages, federation.Outage{Grid: o.Grid, At: o.At.D(), For: o.For.D(), Storage: o.Storage})
	}
	if s.Waves != nil {
		outages = append(outages, s.Waves.FailureWaves(root.Fork(streamWaves), names)...)
	}

	gridSpecs := s.expandGrids(rootSeed)
	links, err := s.compileLinks()
	if err != nil {
		return nil, err
	}

	cfg := federation.Config{
		Grids:      gridSpecs,
		Links:      links,
		WANStreams: s.WANStreams,
		Outages:    outages,
	}
	if b := s.Broker; b != nil {
		polName := b.Policy
		if polName == "" {
			polName = "ranked"
		}
		pol, err := ParsePolicy(polName, len(names))
		if err != nil {
			return nil, s.errAt(b.Policy, "broker: %v", err)
		}
		cfg.Policy = pol
		cfg.Rebroker = b.Rebroker
		cfg.EWMAAlpha = b.EWMAAlpha
	}
	if st := s.Storage; st != nil {
		cfg.SECapacityMB = st.CapacityMB
		if cfg.SEEviction, err = ParseEviction(st.Eviction); err != nil {
			return nil, s.errAt(st.Eviction, "storage: %v", err)
		}
		cfg.MinReplicas = st.MinReplicas
	}

	tenants, weights, err := s.expandTenants(root)
	if err != nil {
		return nil, err
	}
	if len(weights) > 0 {
		for i := range cfg.Grids {
			cfg.Grids[i].Config.TenantWeights = weights
		}
	}

	fed, err := federation.New(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	w := &World{Spec: s, Eng: eng, Fed: fed, Tenants: tenants, Outages: outages}
	if a := s.Admission; a != nil {
		w.Admission = campaign.Admission{MaxUIBacklog: a.MaxUIBacklog, Retry: a.Retry.D(), MaxDelay: a.MaxDelay.D()}
	}
	return w, nil
}

// Run enacts the compiled world: every tenant is brokered across the
// federation under the spec's admission gate, and the engine is stepped
// until the campaign terminates.
func (w *World) Run() (*campaign.Report, error) {
	return campaign.RunSite(w.Eng, campaign.OnFederation(w.Fed), w.Tenants, w.Admission)
}

// Start schedules the world's campaign on the engine without driving it:
// the incremental form of Run for callers that step the engine
// themselves and interleave external events between steps — the online
// broker daemon's boot path. Stepping the returned execution until Done
// and calling its Report yields exactly what Run returns.
func (w *World) Start() (*campaign.Execution, error) {
	return campaign.StartSite(w.Eng, campaign.OnFederation(w.Fed), w.Tenants, w.Admission)
}

// expandGrids resolves presets, overrides and Count families into the
// federation's member specs.
func (s *Spec) expandGrids(rootSeed uint64) []federation.GridSpec {
	var out []federation.GridSpec
	for _, g := range s.Grids {
		count := g.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			name := g.Name
			if count > 1 {
				name = fmt.Sprintf("%s%d", g.Name, i)
			}
			cfg := g.baseConfig()
			if g.Seed != 0 {
				cfg.Seed = g.Seed + uint64(i)
			} else {
				cfg.Seed = rootSeed + uint64(len(out))
			}
			out = append(out, federation.GridSpec{Name: name, Config: cfg})
		}
	}
	return out
}

// HeterogeneousGrids returns n member grids derived from the default
// preset with deliberately skewed capacity and middleware quality — the
// testbed of cmd/federation's flag mode, the hetero-* library scenarios
// and examples/federated. Grid i, named grid%02d, keeps the first
// max(10−2i, 2) default clusters (written out explicitly), pays (i+1)×
// the default UI submission latency, seeds its random streams at seed+i,
// and generates background load for four virtual days (enough to cover
// campaign spans while keeping the event count bounded).
func HeterogeneousGrids(n int, seed uint64) []GridSpec {
	def := grid.DefaultConfig()
	out := make([]GridSpec, n)
	for i := range out {
		keep := max(len(def.Clusters)-2*i, 2)
		clusters := make([]ClusterSpec, keep)
		for j, c := range def.Clusters[:keep] {
			clusters[j] = ClusterSpec{
				Name: c.Name, Nodes: c.Nodes,
				MinSpeed: c.MinSpeed, MaxSpeed: c.MaxSpeed,
				TransferMBps: c.TransferMBps, TransferStreams: c.TransferStreams,
				BackgroundMeanIAT: Duration(c.BackgroundMeanIAT),
				BackgroundMeanDur: Duration(c.BackgroundMeanDur),
				BackgroundSDDur:   Duration(c.BackgroundSDDur),
			}
		}
		out[i] = GridSpec{
			Name:              fmt.Sprintf("grid%02d", i),
			Preset:            "default",
			Clusters:          clusters,
			Seed:              seed + uint64(i),
			SubmitMean:        Duration(def.Overheads.SubmitMean * time.Duration(i+1)),
			BackgroundHorizon: Duration(4 * 24 * time.Hour),
		}
	}
	return out
}

// baseConfig builds one member's grid.Config from its preset and
// overrides (Seed is assigned by expandGrids).
func (g GridSpec) baseConfig() grid.Config {
	var cfg grid.Config
	if g.Preset == "default" {
		cfg = grid.DefaultConfig()
	} else {
		// The quiet preset is the deterministic testbed of the campaign
		// scenario suites: one homogeneous frictionless cluster with
		// small fixed middleware latencies, no background load, no
		// failures.
		nodes := g.Nodes
		if nodes <= 0 {
			nodes = 24
		}
		cfg = grid.IdealConfig(nodes)
		cfg.Overheads = grid.OverheadConfig{
			SubmitMean:   2 * time.Second,
			BrokerMean:   3 * time.Second,
			DispatchMean: 5 * time.Second,
		}
		cfg.BrokerSlots = 4
	}
	if len(g.Clusters) > 0 {
		cfg.Clusters = make([]grid.ClusterConfig, len(g.Clusters))
		for i, c := range g.Clusters {
			cc := grid.ClusterConfig{
				Name: c.Name, Nodes: c.Nodes,
				MinSpeed: c.MinSpeed, MaxSpeed: c.MaxSpeed,
				TransferMBps: c.TransferMBps, TransferStreams: c.TransferStreams,
				BackgroundMeanIAT: c.BackgroundMeanIAT.D(),
				BackgroundMeanDur: c.BackgroundMeanDur.D(),
				BackgroundSDDur:   c.BackgroundSDDur.D(),
			}
			if cc.MinSpeed == 0 && cc.MaxSpeed == 0 {
				cc.MinSpeed, cc.MaxSpeed = 1, 1
			}
			if cc.TransferMBps == 0 {
				cc.TransferMBps = 1e12
			}
			if cc.TransferStreams == 0 {
				cc.TransferStreams = cc.Nodes
			}
			cfg.Clusters[i] = cc
		}
	}
	o := &cfg.Overheads
	if g.SubmitMean > 0 {
		o.SubmitMean = g.SubmitMean.D()
	}
	if g.SubmitSD > 0 {
		o.SubmitSD = g.SubmitSD.D()
	}
	if g.BrokerMean > 0 {
		o.BrokerMean = g.BrokerMean.D()
	}
	if g.BrokerSD > 0 {
		o.BrokerSD = g.BrokerSD.D()
	}
	if g.DispatchMean > 0 {
		o.DispatchMean = g.DispatchMean.D()
	}
	if g.DispatchSD > 0 {
		o.DispatchSD = g.DispatchSD.D()
	}
	if g.SubmitLoadFactor != 0 {
		o.SubmitLoadFactor = g.SubmitLoadFactor
	}
	if g.BrokerSlots > 0 {
		cfg.BrokerSlots = g.BrokerSlots
	}
	if f := g.Failures; f != nil {
		cfg.Failures = grid.FailureConfig{
			Probability: f.Probability,
			DetectDelay: f.DetectDelay.D(),
			MaxRetries:  f.MaxRetries,
		}
	}
	if g.BackgroundHorizon > 0 {
		cfg.BackgroundHorizon = g.BackgroundHorizon.D()
	}
	cfg.StrictFIFOSubmit = g.StrictFIFO
	return cfg
}

// compileLinks resolves the spec's link section into a LinkModel (nil
// keeps the federation default).
func (s *Spec) compileLinks() (grid.LinkModel, error) {
	l := s.Links
	if l == nil {
		return nil, nil
	}
	if l.Local {
		return grid.LocalLinks(), nil
	}
	base := &grid.Links{
		IntraGrid: grid.Link{MBps: l.IntraGridMBps, Latency: l.IntraGridLatency.D()},
		WAN:       grid.Link{MBps: l.WANMBps, Latency: l.WANLatency.D()},
	}
	if len(l.Pairs) == 0 {
		return base, nil
	}
	m := &grid.LinkMatrix{Pairs: make(map[grid.GridPair]grid.Link, len(l.Pairs)), Fallback: base}
	for _, p := range l.Pairs {
		m.Pairs[grid.GridPair{From: p.From, To: p.To}] = grid.Link{MBps: p.MBps, Latency: p.Latency.D()}
	}
	return m, nil
}

// expandTenants generates the tenant roster: per-group arrival schedules
// and per-tenant input corpora, all from streams forked off the root in
// a fixed order (groups first-to-last, tenants within a group in index
// order), so the roster is a pure function of the spec.
func (s *Spec) expandTenants(root *rng.Source) ([]campaign.TenantSpec, map[string]int, error) {
	var out []campaign.TenantSpec
	weights := make(map[string]int)
	tenantIdx := 0
	for gi, g := range s.Tenants {
		count := g.Count
		if count <= 0 {
			count = 1
		}
		var times []time.Duration
		if g.Arrivals != nil {
			times = g.Arrivals.Times(root.Fork(streamArrivals+uint64(gi)), count)
		} else {
			times = make([]time.Duration, count)
		}
		mixes := make([]core.Options, len(g.Policy))
		for j, name := range g.Policy {
			mixes[j] = s.Policies[name].options()
		}
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("%s%02d", g.Prefix, i)
			szr := root.Fork(streamSizes + uint64(tenantIdx))
			tenantIdx++
			var home grid.Site
			if len(g.Workload.Homes) > 0 {
				home = grid.Site{Grid: g.Workload.Homes[i%len(g.Workload.Homes)]}
			}
			build, err := g.Workload.build(szr, home)
			if err != nil {
				return nil, nil, s.errAt(g.Prefix, "tenant group %q: %v", g.Prefix, err)
			}
			ts := campaign.TenantSpec{
				Name:    name,
				Arrival: times[i],
				Opts:    mixes[i%len(mixes)],
				Build:   build,
			}
			if a := g.Adapt; a != nil {
				ts.Adapt = &campaign.AdaptiveGranularity{
					Interval: a.Interval.D(), Slots: a.Slots,
					MinBatch: a.MinBatch, MaxBatch: a.MaxBatch,
				}
			}
			if g.Weight > 1 {
				weights[name] = g.Weight
			}
			out = append(out, ts)
		}
	}
	return out, weights, nil
}

// options resolves the spec mix into enactor options.
func (o OptionsSpec) options() core.Options {
	return core.Options{
		DataParallelism:    o.DataParallelism,
		ServiceParallelism: o.ServiceParallelism,
		JobGrouping:        o.JobGrouping,
		MaxConcurrent:      o.MaxConcurrent,
		DataGroupSize:      o.DataGroupSize,
		DataGroupWindow:    o.DataGroupWindow.D(),
	}
}

// build compiles one tenant's workload into a campaign builder. A
// degenerate (constant) size distribution compiles to the exact
// SyntheticChainPlaced builder of the hand-assembled scenario suites —
// the spec↔code equivalence the tests pin bit-for-bit — while generative
// distributions pre-draw the corpus from the tenant's own stream and
// compile to the sized chain.
func (w WorkloadSpec) build(r *rng.Source, home grid.Site) (campaign.BuildFunc, error) {
	if c, ok := w.Sizes.constant(); ok && (w.OutputMB == 0 || w.OutputMB == c) {
		return campaign.SyntheticChainPlaced(w.Stages, w.Items, w.Runtime.D(), c, home, w.Skew), nil
	}
	sizes := make([]float64, w.Items)
	for i := range sizes {
		sizes[i] = w.Sizes.Draw(r)
	}
	outMB := w.OutputMB
	if outMB == 0 {
		outMB = w.Sizes.mean()
	}
	return campaign.SyntheticChainSized(w.Stages, sizes, w.Runtime.D(), outMB, home, w.Skew), nil
}

// Fingerprint hashes the observable outcome of a compiled run: per-tenant
// makespans, per-grid telemetry and WAN accounting, storage-element
// churn, repair traffic and the global overhead statistics. Two runs of
// one scenario must produce the same value — the per-scenario
// determinism gate of the library tests.
func Fingerprint(rep *campaign.Report, f *federation.Federation) uint64 {
	h := fnv.New64a()
	for _, tr := range rep.Tenants {
		fmt.Fprintf(h, "%s|%d|%d|%d\n", tr.Name, tr.Makespan, tr.Finish, tr.AdmissionDelay)
	}
	for i := 0; i < f.Size(); i++ {
		tl := f.Telemetry(i)
		g := f.Grid(i)
		fmt.Fprintf(h, "%s|%d|%d|%d|%.3f|%.3f|%d\n",
			f.GridName(i), tl.Dispatched, tl.Observed, tl.Rebrokered,
			tl.RemoteInMB, g.WANWait().Seconds(), g.Restages())
	}
	for _, st := range f.Catalog().SEStats() {
		fmt.Fprintf(h, "%s|%d|%.3f|%.3f\n", st.Site, st.Evictions, st.EvictedMB, st.PeakMB)
	}
	fmt.Fprintf(h, "%d|%.3f\n", f.Repairs(), f.RepairedMB())
	g := rep.Global
	fmt.Fprintf(h, "%d|%d|%d\n", g.Jobs, g.Failed, g.Resubmits)
	return h.Sum64()
}
