package campaign

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// localitySpecs returns four equal quiet member grids: identical capacity
// and middleware, different seeds. With the infrastructure symmetric, any
// span/p95 separation between policies on a skewed-placement load is
// attributable to data movement alone.
func localitySpecs() []federation.GridSpec {
	specs := make([]federation.GridSpec, 4)
	for i := range specs {
		cfg := testGrid(24)
		cfg.Overheads.SubmitMean = 3 * time.Second
		cfg.Seed = uint64(200 + i)
		specs[i] = federation.GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	return specs
}

// localityTenants returns n tenants whose inputs are fully resident on a
// home grid assigned round-robin across the four localitySpecs grids —
// the skewed-placement load of the locality acceptance scenario.
func localityTenants(n int, skew float64) []TenantSpec {
	specs := make([]TenantSpec, n)
	for i := range specs {
		home := grid.Site{Grid: fmt.Sprintf("g%d", i%4)}
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * 30 * time.Second,
			Opts:    spdp(),
			Build:   SyntheticChainPlaced(3, 8, 20*time.Second, 20, home, skew),
		}
	}
	return specs
}

// slowWAN is the locality scenario's link model: 1 MB/s across grids with
// a 10 s per-file setup, so a 20 MB file costs 30 s to misplace — on the
// order of the quiet grids' whole middleware overhead.
func slowWAN() *grid.Links {
	return &grid.Links{WAN: grid.Link{MBps: 1, Latency: 10 * time.Second}}
}

// runLocality enacts the 12-tenant skewed load over the 4-grid federation
// under the given policy and link model. streams > 0 makes the WAN fabric
// contended (that many concurrent fetch legs per grid pair); 0 keeps the
// uncontended pure-delay model.
func runLocality(t *testing.T, policy federation.Policy, links *grid.Links, skew float64, streams int) (*Report, *federation.Federation) {
	t.Helper()
	eng := sim.NewEngine()
	f, err := federation.New(eng, federation.Config{Grids: localitySpecs(), Policy: policy, Links: links, WANStreams: streams})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSite(f, localityTenants(12, skew), Admission{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
		}
	}
	return rep, f
}

// wanMB sums the WAN bytes the member grids actually moved (failed
// attempts included).
func wanMB(f *federation.Federation) float64 {
	var mb float64
	for i := 0; i < f.Size(); i++ {
		mb += f.Grid(i).RemoteInMB()
	}
	return mb
}

// TestLocalityAwareRankedBeatsBlindAndBacklog is the acceptance scenario:
// on the 4-grid federation with every tenant's inputs resident on one
// home grid and a slow WAN, the locality-aware Ranked policy must beat
// both the locality-blind ranking and LeastBacklog on campaign span and
// p95 per-tenant makespan, and it must do so by actually moving fewer
// bytes across the WAN.
func TestLocalityAwareRankedBeatsBlindAndBacklog(t *testing.T) {
	aware, fAware := runLocality(t, federation.Ranked(), slowWAN(), 1, 0)
	blind, fBlind := runLocality(t, federation.RankedLocalityBlind(), slowWAN(), 1, 0)
	backlog, fBacklog := runLocality(t, federation.LeastBacklog(), slowWAN(), 1, 0)

	if aware.Makespan >= blind.Makespan {
		t.Errorf("aware span %v not below blind span %v", aware.Makespan, blind.Makespan)
	}
	if aware.Makespan >= backlog.Makespan {
		t.Errorf("aware span %v not below least-backlog span %v", aware.Makespan, backlog.Makespan)
	}
	if ap, bp := p95(aware), p95(blind); ap >= bp {
		t.Errorf("aware p95 %v not below blind p95 %v", ap, bp)
	}
	if ap, lp := p95(aware), p95(backlog); ap >= lp {
		t.Errorf("aware p95 %v not below least-backlog p95 %v", ap, lp)
	}
	// The mechanism must be data movement, not luck: the aware run's WAN
	// traffic has to be a fraction of either control's.
	aw, bw, lw := wanMB(fAware), wanMB(fBlind), wanMB(fBacklog)
	if aw*2 >= bw || aw*2 >= lw {
		t.Errorf("aware WAN traffic %v MB not well below blind %v / backlog %v", aw, bw, lw)
	}
}

// TestUniformReplicasNoRegression pins the decay property: when every
// input is uniformly resident (unplaced) and the workflow is a single
// stage — so no intermediate output ever skews placement — the
// locality-aware and locality-blind rankings see identical transfer
// estimates on every pick and must produce bit-identical campaigns, WAN
// model and all.
func TestUniformReplicasNoRegression(t *testing.T) {
	run := func(policy federation.Policy) uint64 {
		eng := sim.NewEngine()
		f, err := federation.New(eng, federation.Config{Grids: fedSpecs(), Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]TenantSpec, 8)
		for i := range specs {
			specs[i] = TenantSpec{
				Name:    fmt.Sprintf("t%02d", i),
				Arrival: time.Duration(i) * 30 * time.Second,
				Opts:    spdp(),
				Build:   SyntheticChain(1, 8, 20*time.Second, 20),
			}
		}
		rep, err := RunSite(f, specs, Admission{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
		}
		return localityFingerprint(rep, f)
	}
	if aware, blind := run(federation.Ranked()), run(federation.RankedLocalityBlind()); aware != blind {
		t.Fatalf("uniform-replica campaign differs between aware (%#x) and blind (%#x) ranking", aware, blind)
	}
}

// localityFingerprint extends the federated fingerprint with the per-grid
// WAN traffic, so a change to replica selection or the transfer model is
// caught even when it happens not to move any makespan.
func localityFingerprint(rep *Report, f *federation.Federation) uint64 {
	h := fnv.New64a()
	for _, tr := range rep.Tenants {
		fmt.Fprintf(h, "%s|%d|%d|%d\n", tr.Name, tr.Makespan, tr.Finish, tr.AdmissionDelay)
	}
	for i := 0; i < f.Size(); i++ {
		tl := f.Telemetry(i)
		fmt.Fprintf(h, "%s|%d|%d|%d|%.3f\n", f.GridName(i), tl.Dispatched, tl.Observed, tl.Rebrokered, tl.RemoteInMB)
	}
	g := rep.Global
	fmt.Fprintf(h, "%d|%d|%d\n", g.Jobs, g.Failed, g.Resubmits)
	return h.Sum64()
}

// goldenLocalityFingerprint pins the default-WAN federated locality
// behaviour end to end: skewed placement, cross-grid fetches priced by
// grid.DefaultWAN, failures and re-brokering on. Any change to the link
// model, replica selection, output registration sites, broker affinity
// views or the campaign loop shows up here; regenerate the constant (the
// test failure prints it) only for an intentional semantic change, and
// say so in the commit.
const goldenLocalityFingerprint uint64 = 0x729943eae9024726

// TestFederatedLocalityGolden is TestFederatedCampaignGolden's
// counterpart for the locality-aware defaults: same flaky/steady 2-grid
// federation, but with skewed input placement and the default WAN link
// model (Config.Links nil).
func TestFederatedLocalityGolden(t *testing.T) {
	run := func() uint64 {
		eng := sim.NewEngine()
		flaky := testGrid(16)
		flaky.Overheads.SubmitMean = 10 * time.Second
		flaky.Failures = grid.FailureConfig{Probability: 0.25, DetectDelay: 30 * time.Second, MaxRetries: 2}
		flaky.Seed = 7
		steady := testGrid(24)
		steady.Seed = 8
		f, err := federation.New(eng, federation.Config{
			Grids: []federation.GridSpec{
				{Name: "flaky", Config: flaky},
				{Name: "steady", Config: steady},
			},
			Policy:   federation.Ranked(),
			Rebroker: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]TenantSpec, 6)
		for i := range specs {
			home := grid.Site{Grid: "flaky"}
			if i%2 == 1 {
				home = grid.Site{Grid: "steady"}
			}
			specs[i] = TenantSpec{
				Name:    fmt.Sprintf("t%02d", i),
				Arrival: time.Duration(i) * 30 * time.Second,
				Opts:    spdp(),
				Build:   SyntheticChainPlaced(3, 8, 20*time.Second, 10, home, 1),
			}
		}
		rep, err := RunSite(f, specs, Admission{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
		}
		return localityFingerprint(rep, f)
	}
	got := run()
	if again := run(); again != got {
		t.Fatalf("federated locality campaign not deterministic: %#x vs %#x", got, again)
	}
	if got != goldenLocalityFingerprint {
		t.Fatalf("federated locality fingerprint = %#x, golden %#x (update the constant only for an intentional semantic change)",
			got, goldenLocalityFingerprint)
	}
}
