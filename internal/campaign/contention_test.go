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

// wanWait sums the channel-wait time the member grids actually paid
// (failed attempts included).
func wanWait(f *federation.Federation) time.Duration {
	var w time.Duration
	for i := 0; i < f.Size(); i++ {
		w += f.Grid(i).WANWait()
	}
	return w
}

// TestContentionWidensLocalityMargin is the contended-fabric acceptance
// scenario: on the 4-grid skewed-placement federation, squeezing every
// grid pair down to one concurrent WAN fetch must widen the gap between
// the locality-aware Ranked policy and its locality-blind control beyond
// what the PR 4 pure-delay model showed, on both campaign span and p95
// per-tenant makespan — and the mechanism must be channel queueing: the
// blind run drowns in WAN wait the aware run never accumulates. This is
// the congestion-collapse-under-skew family the pure-delay model could
// not express (concurrent fetches overlapped for free).
func TestContentionWidensLocalityMargin(t *testing.T) {
	awareDelay, _ := runLocality(t, federation.Ranked(), slowWAN(), 1, 0)
	blindDelay, _ := runLocality(t, federation.RankedLocalityBlind(), slowWAN(), 1, 0)
	awareCont, fAwareCont := runLocality(t, federation.Ranked(), slowWAN(), 1, 1)
	blindCont, fBlindCont := runLocality(t, federation.RankedLocalityBlind(), slowWAN(), 1, 1)

	// Aware must still win outright under contention.
	if awareCont.Makespan >= blindCont.Makespan {
		t.Errorf("contended aware span %v not below blind span %v", awareCont.Makespan, blindCont.Makespan)
	}
	if ap, bp := p95(awareCont), p95(blindCont); ap >= bp {
		t.Errorf("contended aware p95 %v not below blind p95 %v", ap, bp)
	}
	// And the margin must be wider than the pure-delay one.
	if dm, cm := blindDelay.Makespan-awareDelay.Makespan, blindCont.Makespan-awareCont.Makespan; cm <= dm {
		t.Errorf("contention did not widen the span margin: delay %v vs contended %v", dm, cm)
	}
	if dm, cm := p95(blindDelay)-p95(awareDelay), p95(blindCont)-p95(awareCont); cm <= dm {
		t.Errorf("contention did not widen the p95 margin: delay %v vs contended %v", dm, cm)
	}
	// Mechanism check: the blind run queues on the contended channels,
	// the aware run (which barely touches the WAN) must not.
	aw, bw := wanWait(fAwareCont), wanWait(fBlindCont)
	if aw*10 >= bw {
		t.Errorf("aware WAN wait %v not well below blind %v — contention is not the mechanism", aw, bw)
	}
}

// wanFingerprint extends the locality fingerprint with the per-grid
// WAN-wait seconds, so channel grant order — not just byte counts — is
// pinned.
func wanFingerprint(rep *Report, f *federation.Federation) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#x\n", localityFingerprint(rep, f))
	for i := 0; i < f.Size(); i++ {
		fmt.Fprintf(h, "%s|%.3f|%.3f\n", f.GridName(i), f.Grid(i).WANWait().Seconds(), f.Telemetry(i).WANWait.Seconds())
	}
	return h.Sum64()
}

// TestContendedCampaignDeterministic pins cross-run determinism of the
// contended fabric end to end: the skewed 12-tenant campaign over
// capacity-1 channels produces bit-identical per-tenant makespans,
// per-grid telemetry and per-grid WAN-wait seconds on every run (the
// test-speed face of the cross-iteration fingerprint check that
// BenchmarkScenario/hetero-contention runs).
func TestContendedCampaignDeterministic(t *testing.T) {
	run := func() uint64 {
		rep, f := runLocality(t, federation.RankedLocalityBlind(), slowWAN(), 1, 1)
		return wanFingerprint(rep, f)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("contended campaign not deterministic: %#x vs %#x", a, b)
	}
}

// TestLinksPairsEquivalentCampaign is the end-to-end face of the pair
// generalization property: the skewed locality campaign run under a pair
// matrix listing every ordered member-grid pair at the DefaultWAN
// constants is bit-identical (fingerprint and all) to the same campaign
// under the class-based DefaultWAN model itself.
func TestLinksPairsEquivalentCampaign(t *testing.T) {
	matrix := &grid.Links{Pairs: make(map[grid.GridPair]grid.Link)}
	wan := grid.DefaultWAN().WAN
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				matrix.Pairs[grid.GridPair{From: fmt.Sprintf("g%d", i), To: fmt.Sprintf("g%d", j)}] = wan
			}
		}
	}
	classes, fClasses := runLocality(t, federation.Ranked(), grid.DefaultWAN(), 1, 2)
	matrixed, fMatrix := runLocality(t, federation.Ranked(), matrix, 1, 2)
	if a, b := wanFingerprint(classes, fClasses), wanFingerprint(matrixed, fMatrix); a != b {
		t.Fatalf("full matrix diverges from the class model: %#x vs %#x", a, b)
	}
}

// TestCampaignSurvivesGridOutage is the outage acceptance scenario at the
// campaign layer: the 4-grid skewed federated campaign with one member
// dark for a mid-campaign window must still complete every tenant via
// re-brokering, route no work to the dark grid during the window, and
// degrade gracefully (the disturbed span is bounded by a small multiple
// of the clean one).
func TestCampaignSurvivesGridOutage(t *testing.T) {
	const (
		dark   = "g1"
		downAt = 2 * time.Minute
		upFor  = 3 * time.Minute
	)
	run := func(outages []federation.Outage) (*Report, *federation.Federation) {
		eng := sim.NewEngine()
		f, err := federation.New(eng, federation.Config{
			Grids:    localitySpecs(),
			Policy:   federation.Ranked(),
			Links:    slowWAN(),
			Rebroker: 2,
			Outages:  outages,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunSite(f, localityTenants(12, 1), Admission{})
		if err != nil {
			t.Fatal(err)
		}
		return rep, f
	}
	rep, f := run([]federation.Outage{{Grid: dark, At: downAt, For: upFor}})
	for _, tr := range rep.Tenants {
		if tr.Err != nil {
			t.Errorf("tenant %s did not survive the outage: %v", tr.Name, tr.Err)
		}
	}
	inFlight, rejoined := 0, false
	for _, rec := range f.Records() {
		if rec.Grid != dark {
			continue
		}
		switch {
		case rec.Submitted >= sim.Time(downAt) && rec.Submitted < sim.Time(downAt+upFor):
			t.Errorf("job %s was routed to the dark grid inside the window (submitted %v)", rec.Spec.Name, rec.Submitted)
		case rec.Status == grid.StatusFailed:
			inFlight++
		}
		if rec.Submitted >= sim.Time(downAt+upFor) {
			rejoined = true
		}
	}
	if inFlight == 0 {
		t.Error("no in-flight job failed on the dark grid — the window missed the campaign")
	}
	if !rejoined {
		t.Error("the recovered grid never rejoined the campaign")
	}
	clean, _ := run(nil)
	if rep.Makespan < clean.Makespan {
		t.Errorf("outage span %v below the clean span %v", rep.Makespan, clean.Makespan)
	}
	if rep.Makespan > 2*clean.Makespan {
		t.Errorf("outage span %v more than doubles the clean span %v", rep.Makespan, clean.Makespan)
	}
}
