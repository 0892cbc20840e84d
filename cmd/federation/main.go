// Command federation sweeps broker policies over a multi-grid federated
// campaign: the same multi-tenant load is enacted once per policy on a
// fresh, identically-seeded federation of heterogeneous grids, so the
// per-policy makespan distributions and per-grid dispatch tables are
// directly comparable. Every world is built by the scenario compiler:
// the flags synthesize one scenario.Spec — member grids from
// scenario.HeterogeneousGrids (the default production-grid model with
// skewed capacity and UI latency, the regime where brokering matters: a
// policy blind to middleware quality parks load behind slow serialized
// UIs), one staggered tenant group rotating four option mixes — and each
// sweep cell re-sets the spec's broker policy, skew or WAN bandwidth,
// then compiles and runs it on a fresh engine.
//
// Data locality is first-class: a -skew fraction of each tenant's inputs
// is placed on its home grid (homes rotate across members), cross-grid
// fetches pay the -wan/-wanlat link (or a per-pair -pairs matrix), and
// the wan_mb column reports the bytes each policy actually moved. The
// WAN can be made a contended fabric with -wanstreams: each ordered grid
// pair becomes a capacity-limited shared channel, concurrent fetches
// queue, and the wan_wait column reports the induced queueing. A member
// grid can be taken dark mid-campaign with -outage: its in-flight jobs
// fail and re-broker elsewhere, and no work is routed to it during the
// window. The -locality mode sweeps replica skew × WAN bandwidth over
// the locality-aware ranked policy, its locality-blind control and
// least-backlog, mapping out when data-aware brokering pays.
//
// Storage elements are active too: -se-cap gives every element a finite
// capacity with -se-policy eviction (lru or popularity), -minreplicas
// arms the k-replication repair floor, and -se-outage takes one member's
// storage (not its compute) dark for a window, so fetches sourced from
// it fail and re-stage from surviving replicas. The evicted_mb, lost and
// restage columns report the resulting churn: bytes drained under
// capacity pressure, jobs whose entire replica set died (ErrReplicaLost)
// and backed-off re-staging rounds.
//
// Whole worlds can come from declarative spec files instead of flags:
// -scenario path.json compiles and runs one scenario (internal/scenario),
// with the workload and storage flags acting as overrides of the spec,
// and -scenarios 'glob' runs a whole library and prints one results row
// per scenario — the `make scenarios` sweep.
//
// Examples:
//
//	federation                                  # sweep all policies, 4 grids × 16 tenants
//	federation -grids 2 -tenants 8 -policies ranked,backlog
//	federation -policies ranked,ranked-blind -skew 1 -wan 0.5 -wanstreams 1
//	federation -policies ranked,rr -outage grid01@2h+90m -rebroker 2
//	federation -pairs 'grid00>grid01=1:10s,grid01>grid00=8:1s' -skew 1
//	federation -locality -skews 0,0.5,1 -wans 0.5,2,8
//	federation -se-cap 400 -se-policy popularity -minreplicas 2 -skew 1
//	federation -policies ranked,ranked-safe -se-outage grid01@1h+2h -minreplicas 2
//	federation -scenario scenarios/contended-wan.json -v
//	federation -scenario scenarios/clean-baseline.json -items 40 -seed 7
//	federation -scenarios 'scenarios/*.json'    # the library results table
//	federation -policies ranked,pinned:3 -v     # acceptance comparison + per-grid tables
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// mixes is the optimization rotation across tenants, as in cmd/campaign;
// tenant i of the flag-mode group runs mixOrder[i%4].
var (
	mixes = map[string]scenario.OptionsSpec{
		"spdp":       {ServiceParallelism: true, DataParallelism: true},
		"spdp-jg":    {ServiceParallelism: true, DataParallelism: true, JobGrouping: true},
		"dp":         {DataParallelism: true},
		"spdp-batch": {ServiceParallelism: true, DataParallelism: true, DataGroupSize: 4, DataGroupWindow: scenario.Duration(time.Minute)},
	}
	mixOrder = scenario.PolicyList{"spdp", "spdp-jg", "dp", "spdp-batch"}
)

func main() {
	var (
		grids        = flag.Int("grids", 4, "number of member grids in the federation")
		tenants      = flag.Int("tenants", 16, "number of concurrent tenants")
		servs        = flag.Int("services", 4, "pipeline stages per tenant workflow")
		items        = flag.Int("items", 20, "input data items per tenant")
		runtime      = flag.Duration("runtime", 2*time.Minute, "per-stage compute time")
		fileMB       = flag.Float64("filemb", 5, "input/intermediate file size (MB)")
		spread       = flag.Duration("spread", time.Minute, "arrival stagger between tenants")
		seed         = flag.Uint64("seed", 1, "base random seed (grid i uses seed+i)")
		rebroker     = flag.Int("rebroker", 1, "cross-grid resubmissions after terminal failure")
		policies     = flag.String("policies", "ranked,backlog,rr,pinned:0", "comma-separated policies to sweep (ranked|ranked-blind|ranked-safe|backlog|rr|pinned:N)")
		skew         = flag.Float64("skew", 0, "fraction of each tenant's inputs placed on its home grid (homes rotate across members)")
		wan          = flag.Float64("wan", 2, "WAN bandwidth between member grids (MB/s; 0 keeps cross-grid staging free)")
		wanLat       = flag.Duration("wanlat", 5*time.Second, "per-file WAN fetch setup latency")
		wanStreams   = flag.Int("wanstreams", 0, "concurrent cross-grid fetches per ordered (from,to) grid pair (0 keeps the uncontended pure-delay WAN)")
		outage       = flag.String("outage", "", "member-grid outage window, format name@start+duration (e.g. grid01@2h+90m; omit +duration for no recovery)")
		seOutage     = flag.String("se-outage", "", "storage-only outage window (same format as -outage): the grid's storage elements go dark, its compute stays up")
		seCap        = flag.Float64("se-cap", 0, "storage-element capacity per site (MB; 0 keeps elements unlimited)")
		sePolicy     = flag.String("se-policy", "lru", "eviction policy of capacity-limited storage elements (lru|popularity)")
		minRep       = flag.Int("minreplicas", 0, "replication floor k: files below k live replicas are repaired onto healthy grids (0 disables repair)")
		pairs        = flag.String("pairs", "", "per-pair WAN link overrides, format from>to=MBps:latency[,...]; unlisted pairs fall back to -wan/-wanlat")
		locality     = flag.Bool("locality", false, "run the locality sweep (replica skew × WAN bandwidth, aware vs blind vs backlog) instead of the policy sweep")
		skews        = flag.String("skews", "0,0.5,1", "comma-separated skew values of the locality sweep")
		wans         = flag.String("wans", "0.5,2,8", "comma-separated WAN bandwidths (MB/s) of the locality sweep")
		scenarioPath = flag.String("scenario", "", "run one declarative scenario file; workload and storage flags become overrides of the spec")
		scenariosPat = flag.String("scenarios", "", "run every scenario file matching the glob and print the library results table")
		verbose      = flag.Bool("v", false, "print the per-grid dispatch and telemetry table per policy")
	)
	flag.Parse()

	if *scenariosPat != "" {
		scenarioTable(*scenariosPat)
		return
	}
	var outages []scenario.OutageSpec
	for _, fl := range []struct {
		name, val string
		storage   bool
	}{{"outage", *outage, false}, {"se-outage", *seOutage, true}} {
		if fl.val == "" {
			continue
		}
		o, err := scenario.ParseOutage(fl.val)
		if err != nil {
			exit(2, "-%s: %v", fl.name, err)
		}
		o.Storage = fl.storage
		outages = append(outages, o)
	}
	if *scenarioPath != "" {
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"grids", "wan", "wanlat", "pairs", "locality", "skews", "wans"} {
			if set[name] {
				exit(2, "-%s cannot override a scenario; edit the spec's grids/links sections instead", name)
			}
		}
		if set["policies"] && strings.Contains(*policies, ",") {
			exit(2, "-policies with -scenario overrides the broker policy and takes exactly one name")
		}
		ov := scenario.Overrides{
			Seed:         ifSet(set, "seed", seed),
			Policy:       ifSet(set, "policies", policies),
			WANStreams:   ifSet(set, "wanstreams", wanStreams),
			Rebroker:     ifSet(set, "rebroker", rebroker),
			SECapacityMB: ifSet(set, "se-cap", seCap),
			SEEviction:   ifSet(set, "se-policy", sePolicy),
			MinReplicas:  ifSet(set, "minreplicas", minRep),
			Outages:      outages,
			Tenants:      ifSet(set, "tenants", tenants),
			Stages:       ifSet(set, "services", servs),
			Items:        ifSet(set, "items", items),
			Runtime:      ifSet(set, "runtime", runtime),
			Skew:         ifSet(set, "skew", skew),
			FileMB:       ifSet(set, "filemb", fileMB),
			Spread:       ifSet(set, "spread", spread),
		}
		runScenario(*scenarioPath, ov, *verbose)
		return
	}

	// Flag mode: synthesize the world as a spec.
	if *tenants < 1 {
		exit(2, "-tenants must be positive, got %d", *tenants)
	}
	if *seed == 0 {
		exit(2, "-seed must be positive (grid i seeds at seed+i, and a spec seed of 0 means 1)")
	}
	links := &scenario.LinksSpec{}
	if *pairs != "" {
		ps, err := scenario.ParsePairs(*pairs)
		if err != nil {
			exit(2, "-pairs: %v", err)
		}
		links.Pairs = ps
	}
	setWAN(links, *wan, *wanLat)
	spec := &scenario.Spec{
		Name:       "flags",
		Seed:       *seed,
		Grids:      scenario.HeterogeneousGrids(*grids, *seed),
		Links:      links,
		WANStreams: *wanStreams,
		Outages:    outages,
		Storage:    &scenario.StorageSpec{CapacityMB: *seCap, Eviction: *sePolicy, MinReplicas: *minRep},
		Broker:     &scenario.BrokerSpec{Rebroker: *rebroker},
		Policies:   mixes,
		Tenants: []scenario.TenantGroup{{
			Count:    *tenants,
			Prefix:   "t",
			Policy:   mixOrder,
			Arrivals: &scenario.ArrivalSpec{Kind: "staggered", Spread: scenario.Duration(*spread)},
			Workload: scenario.WorkloadSpec{
				Stages:  *servs,
				Items:   *items,
				Runtime: scenario.Duration(*runtime),
				Sizes:   scenario.SizeSpec{Kind: "constant", MeanMB: *fileMB},
				Skew:    *skew,
			},
		}},
	}
	spec.Tenants[0].Workload.Homes = spec.GridNames()
	if err := spec.Validate(); err != nil {
		exit(2, "%v", err)
	}
	if *locality {
		localitySweep(spec, *wanLat, *skews, *wans)
		return
	}
	policySweep(spec, *policies, *wan, *verbose)
}

// ifSet returns the flag's value pointer when the flag was set on the
// command line, nil (no override) otherwise.
func ifSet[T any](set map[string]bool, name string, v *T) *T {
	if set[name] {
		return v
	}
	return nil
}

// exit prints a prefixed error and exits with the code: 2 for bad input,
// 1 for a world or run that failed.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "federation: "+format+"\n", args...)
	os.Exit(code)
}

// setWAN prices the spec's cross-grid class link. A non-positive
// bandwidth means free staging regardless of the latency — a
// latency-only WAN is not expressible from the CLI: local links, or,
// under a -pairs matrix, zero class links, which price unlisted pairs as
// local.
func setWAN(l *scenario.LinksSpec, mbps float64, lat time.Duration) {
	l.Local = mbps <= 0 && len(l.Pairs) == 0
	l.WANMBps, l.WANLatency = 0, 0
	if mbps > 0 {
		l.WANMBps, l.WANLatency = mbps, scenario.Duration(lat)
	}
}

// run compiles the spec on a fresh engine and enacts it.
func run(spec *scenario.Spec) (*campaign.Report, *federation.Federation) {
	w, err := scenario.Compile(sim.NewEngine(), spec)
	if err != nil {
		exit(1, "%v", err)
	}
	rep, err := w.Run()
	if err != nil {
		exit(1, "%v", err)
	}
	return rep, w.Fed
}

// policySweep runs the synthesized world once per broker policy and
// prints one results row each.
func policySweep(spec *scenario.Spec, policies string, wan float64, verbose bool) {
	var names []string
	for _, name := range strings.Split(policies, ",") {
		name = strings.TrimSpace(name)
		if _, err := scenario.ParsePolicy(name, len(spec.Grids)); err != nil {
			exit(2, "%v", err)
		}
		names = append(names, name)
	}
	g := spec.Tenants[0]
	fmt.Printf("federation sweep: %d tenants × %d-stage chains × %d items over %d heterogeneous grids (seed %d, rebroker %d, skew %.2f, wan %.1f MB/s, streams %d)\n",
		g.Count, g.Workload.Stages, g.Workload.Items, len(spec.Grids), spec.Seed, spec.Broker.Rebroker, g.Workload.Skew, wan, spec.WANStreams)
	banner(spec)
	header("policy", 16)
	for _, name := range names {
		spec.Broker.Policy = name
		rep, fed := run(spec)
		row(fed.Policy().Name(), 16, rep, fed)
		if verbose {
			printVerbose(fed)
		}
	}
}

// banner prints the outage windows and storage configuration every cell
// of a sweep inherits — without it a table would read as a clean
// experiment — then the blank line above the table.
func banner(spec *scenario.Spec) {
	for _, o := range spec.Outages {
		dim := "dark"
		if o.Storage {
			dim = "storage dark"
		}
		if o.For > 0 {
			fmt.Printf("outage: %s %s from %v to %v\n", o.Grid, dim, o.At.D(), (o.At + o.For).D())
		} else {
			fmt.Printf("outage: %s %s from %v (no recovery)\n", o.Grid, dim, o.At.D())
		}
	}
	if st := spec.Storage; st.CapacityMB > 0 {
		fmt.Printf("storage: %.0f MB per element, %s eviction, replication floor %d\n", st.CapacityMB, st.Eviction, st.MinReplicas)
	} else if st.MinReplicas > 0 {
		fmt.Printf("storage: unlimited elements, replication floor %d\n", st.MinReplicas)
	}
	fmt.Println()
}

// runScenario compiles and runs one spec file with CLI overrides applied.
func runScenario(path string, ov scenario.Overrides, verbose bool) {
	spec, err := scenario.Load(path)
	if err != nil {
		exit(2, "%v", err)
	}
	if err := ov.Apply(spec); err != nil {
		exit(2, "%v", err)
	}
	rep, fed := run(spec)
	if spec.Description != "" {
		fmt.Printf("scenario %s: %s\n", spec.Name, spec.Description)
	} else {
		fmt.Printf("scenario %s\n", spec.Name)
	}
	fmt.Printf("%d grids, %d tenants, seed %d\n\n", len(spec.GridNames()), spec.TenantCount(), spec.Seed)
	header("scenario", 20)
	row(spec.Name, 20, rep, fed)
	if verbose {
		printVerbose(fed)
	}
}

// scenarioTable runs every scenario matching the glob on a fresh engine
// and prints the library results table — the `make scenarios` sweep.
func scenarioTable(pattern string) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		exit(2, "-scenarios: %v", err)
	}
	if len(paths) == 0 {
		exit(2, "-scenarios: no files match %q", pattern)
	}
	sort.Strings(paths)
	fmt.Printf("scenario library: %d scenarios\n\n", len(paths))
	header("scenario", 20)
	for _, p := range paths {
		spec, err := scenario.Load(p)
		if err != nil {
			exit(1, "%v", err)
		}
		rep, fed := run(spec)
		row(spec.Name, 20, rep, fed)
	}
}

// header prints the results-table column header with the given label
// column.
func header(label string, width int) {
	fmt.Printf("%-*s %12s %12s %12s %6s %6s %10s %10s %10s %10s %5s %8s %6s\n",
		width, label, "span", "p50", "p95", "jobs", "failed", "resubmits", "wan_mb", "wan_wait", "evicted_mb", "lost", "restage", "grids")
}

// summary aggregates one run for the results tables: the sorted makespans
// of the tenants that succeeded, WAN bytes and waits actually paid
// (failed attempts included, not the telemetry's completed-jobs
// observation), storage churn, replica losses, re-staging rounds and the
// number of grids that received work.
type summary struct {
	ms               []time.Duration
	wanMB, evictedMB float64
	wanWait          time.Duration
	lost, used       int
	restage          uint64
}

// summarize builds a run's summary, reporting failed tenants under the
// row label.
func summarize(label string, rep *campaign.Report, fed *federation.Federation) summary {
	var s summary
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			fmt.Fprintf(os.Stderr, "federation: %s: tenant %s: %v\n", label, tr.Name, tr.Err)
			continue
		}
		s.ms = append(s.ms, tr.Makespan)
	}
	sort.Slice(s.ms, func(i, j int) bool { return s.ms[i] < s.ms[j] })
	for i := 0; i < fed.Size(); i++ {
		if fed.Telemetry(i).Dispatched > 0 {
			s.used++
		}
		s.wanMB += fed.Grid(i).RemoteInMB()
		s.wanWait += fed.Grid(i).WANWait()
		s.restage += fed.Grid(i).Restages()
	}
	for _, st := range fed.Catalog().SEStats() {
		s.evictedMB += st.EvictedMB
	}
	for _, rec := range fed.Records() {
		if errors.Is(rec.Err, grid.ErrReplicaLost) {
			s.lost++
		}
	}
	return s
}

// row prints one run as a results-table row: makespan percentiles across
// tenants, job counts, WAN bytes and waits, storage churn and
// replica-loss counts.
func row(label string, width int, rep *campaign.Report, fed *federation.Federation) {
	s := summarize(label, rep, fed)
	fmt.Printf("%-*s %12v %12v %12v %6d %6d %10d %10.0f %10v %10.0f %5d %8d %3d/%d\n",
		width, label, rep.Makespan.Round(time.Second),
		pct(s.ms, 50).Round(time.Second), pct(s.ms, 95).Round(time.Second),
		rep.Global.Jobs, rep.Global.Failed, rep.Global.Resubmits, s.wanMB,
		s.wanWait.Round(time.Second), s.evictedMB, s.lost, s.restage, s.used, fed.Size())
}

// printVerbose prints the per-grid telemetry, fabric and storage tables.
func printVerbose(fed *federation.Federation) {
	for i := 0; i < fed.Size(); i++ {
		tl := fed.Telemetry(i)
		fmt.Printf("    %-8s dispatched=%-5d observed=%-5d rebrokered=%-3d submitEWMA=%-8v queueEWMA=%-8v stretch=%-6.2f wan_mb=%-8.0f wan_wait=%-8v restages=%d\n",
			fed.GridName(i), tl.Dispatched, tl.Observed, tl.Rebrokered,
			tl.SubmitEWMA.Round(time.Second), tl.QueueEWMA.Round(time.Second),
			tl.Stretch(), fed.Grid(i).RemoteInMB(), fed.Grid(i).WANWait().Round(time.Second),
			fed.Grid(i).Restages())
	}
	if fab := fed.Fabric(); fab != nil {
		for _, ps := range fab.PairStats() {
			fmt.Printf("    %s>%s cap=%d grants=%d peak_queue=%d\n",
				ps.From, ps.To, ps.Capacity, ps.Grants, ps.PeakWaiting)
		}
	}
	for _, st := range fed.Catalog().SEStats() {
		if st.Evictions == 0 && st.PeakMB == 0 {
			continue
		}
		site := st.Site.Grid
		if st.Site.Cluster != "" {
			site += "/" + st.Site.Cluster
		}
		fmt.Printf("    SE %-20s used=%-8.0f peak=%-8.0f files=%-5d evictions=%-5d evicted_mb=%.0f\n",
			site, st.UsedMB, st.PeakMB, st.Files, st.Evictions, st.EvictedMB)
	}
	if f := fed.Repairs(); f > 0 {
		fmt.Printf("    repairs=%d repaired_mb=%.0f\n", f, fed.RepairedMB())
	}
}

// localitySweep maps campaign span/p95 and WAN traffic over replica skew ×
// WAN bandwidth for the locality-aware ranked policy, its locality-blind
// control and least-backlog. A -pairs matrix survives the sweep: its
// listed pairs stay fixed while the swept bandwidth replaces only the
// class link of unlisted pairs.
func localitySweep(spec *scenario.Spec, wanLat time.Duration, skews, wans string) {
	skewVals, err := scenario.ParseFloats(skews)
	if err != nil {
		exit(2, "-skews: %v", err)
	}
	wanVals, err := scenario.ParseFloats(wans)
	if err != nil {
		exit(2, "-wans: %v", err)
	}
	g := &spec.Tenants[0]
	fmt.Printf("locality sweep: %d tenants × %d-stage chains × %d items over %d heterogeneous grids (seed %d, wanlat %v, streams %d)\n",
		g.Count, g.Workload.Stages, g.Workload.Items, len(spec.Grids), spec.Seed, wanLat, spec.WANStreams)
	banner(spec)
	fmt.Printf("%-5s %-8s %-16s %12s %12s %10s %10s\n", "skew", "wanMBps", "policy", "span", "p95", "wan_mb", "wan_wait")
	for _, sk := range skewVals {
		for _, w := range wanVals {
			for _, pol := range []string{"ranked", "ranked-blind", "backlog"} {
				g.Workload.Skew, spec.Broker.Policy = sk, pol
				setWAN(spec.Links, w, wanLat)
				rep, fed := run(spec)
				label := fed.Policy().Name()
				s := summarize(label, rep, fed)
				fmt.Printf("%-5.2f %-8.1f %-16s %12v %12v %10.0f %10v\n",
					sk, w, label, rep.Makespan.Round(time.Second),
					pct(s.ms, 95).Round(time.Second), s.wanMB, s.wanWait.Round(time.Second))
			}
		}
	}
}

// pct returns the upper nearest-rank percentile of sorted durations.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)*p/100]
}
