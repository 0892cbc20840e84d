package campaign

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// fedSpecs returns four heterogeneous member grids: capacities shrink and
// UI latencies grow from grid 0 to grid 3, so grid 3 ("busiest": the
// least capacity behind the slowest middleware) is the worst possible
// single home for a whole campaign.
func fedSpecs() []federation.GridSpec {
	nodes := []int{48, 32, 24, 12}
	submit := []time.Duration{3 * time.Second, 5 * time.Second, 8 * time.Second, 15 * time.Second}
	specs := make([]federation.GridSpec, 4)
	for i := range specs {
		cfg := testGrid(nodes[i])
		cfg.Overheads.SubmitMean = submit[i]
		cfg.Seed = uint64(100 + i)
		specs[i] = federation.GridSpec{Name: fmt.Sprintf("g%d", i), Config: cfg}
	}
	return specs
}

func fedTenants(n int) []TenantSpec {
	specs := make([]TenantSpec, n)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * 30 * time.Second,
			Opts:    spdp(),
			Build:   SyntheticChain(3, 8, 20*time.Second, 1),
		}
	}
	return specs
}

// runFederated runs the 16-tenant load over the 4-grid federation under
// the given policy and returns the report and federation.
func runFederated(t *testing.T, policy federation.Policy) (*Report, *federation.Federation) {
	t.Helper()
	eng := sim.NewEngine()
	f, err := federation.New(eng, federation.Config{Grids: fedSpecs(), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSite(f, fedTenants(16), Admission{})
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

// p95 returns the upper nearest-rank 95th percentile of the per-tenant
// makespans (with 16 tenants, the maximum).
func p95(rep *Report) time.Duration {
	ms := make([]time.Duration, len(rep.Tenants))
	for i, tr := range rep.Tenants {
		ms[i] = tr.Makespan
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms[len(ms)*95/100]
}

// TestFederatedCampaignBeatsPinnedBusiest is the acceptance scenario: a
// 16-tenant campaign over the 4-grid federation under the overhead-ranked
// policy must finish with a lower p95 per-tenant makespan than the same
// load pinned to the single busiest grid (grid 3: 12 nodes behind a 15s
// UI).
func TestFederatedCampaignBeatsPinnedBusiest(t *testing.T) {
	ranked, fr := runFederated(t, federation.Ranked())
	pinned, _ := runFederated(t, federation.Pinned(3))

	if rp, pp := p95(ranked), p95(pinned); rp >= pp {
		t.Fatalf("ranked p95 %v not below pinned-busiest p95 %v", rp, pp)
	}
	// The win must come from actual brokering: the ranked policy has to
	// spread the load over several grids, favouring the fast ones.
	used := 0
	for i := 0; i < fr.Size(); i++ {
		if fr.Telemetry(i).Dispatched > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("ranked policy used only %d of 4 grids", used)
	}
	if fr.Telemetry(3).Dispatched >= fr.Telemetry(0).Dispatched {
		t.Fatalf("slowest grid received %d jobs, fast grid %d — ranking inverted",
			fr.Telemetry(3).Dispatched, fr.Telemetry(0).Dispatched)
	}
	// Per-tenant partitions must cover the federation aggregates even
	// with jobs scattered across grids.
	total := 0
	for _, tr := range ranked.Tenants {
		total += tr.Overheads.Jobs + tr.Overheads.Failed
	}
	if global := ranked.Global; total != global.Jobs+global.Failed {
		t.Fatalf("tenant partitions cover %d jobs, global has %d", total, global.Jobs+global.Failed)
	}
}

// goldenFederatedFingerprint pins a 2-grid federated campaign end to end:
// an FNV-1a hash over every tenant's makespan and finish instant, the
// per-grid dispatch/re-broker counts, and the federation-level job
// accounting. Any change to broker policies, federation dispatch order,
// the campaign loop or the grid model shows up here; regenerate the
// constant (the test failure prints it) only for an intentional semantic
// change, and say so in the commit.
const goldenFederatedFingerprint uint64 = 0xb6ad0c0c4ef268e4

func federatedFingerprint(rep *Report, f *federation.Federation) uint64 {
	h := fnv.New64a()
	for _, tr := range rep.Tenants {
		fmt.Fprintf(h, "%s|%d|%d\n", tr.Name, tr.Makespan, tr.Finish)
	}
	for i := 0; i < f.Size(); i++ {
		tl := f.Telemetry(i)
		fmt.Fprintf(h, "%s|%d|%d|%d\n", f.GridName(i), tl.Dispatched, tl.Observed, tl.Rebrokered)
	}
	g := rep.Global
	fmt.Fprintf(h, "%d|%d|%d\n", g.Jobs, g.Failed, g.Resubmits)
	return h.Sum64()
}

// TestFederatedCampaignGolden runs a 2-grid federated campaign with
// failures and re-brokering enabled and compares its complete outcome
// fingerprint against the pinned golden. The federation runs under
// grid.LocalLinks — the location-blind transfer model — and the golden
// constant is the one captured before the catalog learned about replica
// locations: this test is the proof that LocalLinks restores the PR 3
// free-staging federation bit for bit (the default WAN model's behaviour
// is pinned separately by TestFederatedLocalityGolden).
func TestFederatedCampaignGolden(t *testing.T) {
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
			Links:    grid.LocalLinks(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunSite(f, fedTenants(6), Admission{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Fatalf("tenant %s: %v", tr.Name, tr.Err)
			}
		}
		return federatedFingerprint(rep, f)
	}
	got := run()
	if again := run(); again != got {
		t.Fatalf("federated campaign not deterministic: %#x vs %#x", got, again)
	}
	if got != goldenFederatedFingerprint {
		t.Fatalf("federated campaign fingerprint = %#x, golden %#x (update the constant only for an intentional semantic change)",
			got, goldenFederatedFingerprint)
	}
}
