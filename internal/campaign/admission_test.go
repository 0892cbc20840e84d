package campaign

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// admissionLoad is the burst scenario: one steady tenant enacting a
// data-parallel pipeline from t=0 (each stage submits a 20-job burst, so
// its tail overheads scale with the fair-share round length), and two
// 150-item single-stage bursts arriving close together — the second burst
// is what admission control is for.
func admissionLoad() []TenantSpec {
	dp := core.Options{DataParallelism: true}
	return []TenantSpec{
		{Name: "steady", Opts: dp, Build: SyntheticChain(4, 20, 30*time.Second, 1)},
		{Name: "burst1", Arrival: 2 * time.Minute, Opts: dp, Build: SyntheticChain(1, 150, 30*time.Second, 1)},
		{Name: "burst2", Arrival: 4 * time.Minute, Opts: dp, Build: SyntheticChain(1, 150, 30*time.Second, 1)},
	}
}

func runAdmission(t *testing.T, adm Admission) map[string]TenantResult {
	t.Helper()
	rep, _ := runOneGrid(t, testGrid(64), admissionLoad(), adm)
	out := make(map[string]TenantResult, len(rep.Tenants))
	for _, tr := range rep.Tenants {
		out[tr.Name] = tr
	}
	return out
}

// TestAdmissionProtectsSteadyTenant is the satellite acceptance: with a
// UI-backlog threshold, the second burst is held back until the first has
// drained, and the steady tenant's overhead tail (p90 over its own jobs)
// and makespan both improve against the ungated run. The delayed burst
// pays for it honestly in its own AdmissionDelay.
func TestAdmissionProtectsSteadyTenant(t *testing.T) {
	ungated := runAdmission(t, Admission{})
	gated := runAdmission(t, Admission{MaxUIBacklog: 25, Retry: 30 * time.Second})

	for name, tr := range gated {
		if tr.Err != nil {
			t.Fatalf("gated tenant %s: %v", name, tr.Err)
		}
	}
	if d := gated["burst2"].AdmissionDelay; d <= 0 {
		t.Fatalf("burst2 admission delay = %v, want > 0 (the gate never engaged)", d)
	}
	if d := gated["steady"].AdmissionDelay; d != 0 {
		t.Fatalf("steady tenant was delayed %v by admission control", d)
	}
	if g, u := gated["steady"].Overheads.P90, ungated["steady"].Overheads.P90; g >= u {
		t.Errorf("steady p90 overhead %v not below ungated %v", g, u)
	}
	if g, u := gated["steady"].Makespan, ungated["steady"].Makespan; g >= u {
		t.Errorf("steady makespan %v not below ungated %v", g, u)
	}
}

// TestAdmissionRejectsAfterMaxDelay pins the rejection path: a tenant
// that waits out Admission.MaxDelay against a still-saturated UI is turned
// away with ErrAdmissionRejected while the rest of the campaign
// completes.
func TestAdmissionRejectsAfterMaxDelay(t *testing.T) {
	rep, _ := runOneGrid(t, testGrid(64), []TenantSpec{
		{Name: "flood", Opts: spdp(), Build: SyntheticChain(1, 200, 10*time.Minute, 1)},
		{Name: "late", Arrival: 2 * time.Minute, Opts: spdp(), Build: SyntheticChain(1, 5, 30*time.Second, 1)},
	}, Admission{MaxUIBacklog: 10, Retry: 30 * time.Second, MaxDelay: 2 * time.Minute})
	var flood, late TenantResult
	for _, tr := range rep.Tenants {
		switch tr.Name {
		case "flood":
			flood = tr
		case "late":
			late = tr
		}
	}
	if flood.Err != nil {
		t.Fatalf("flood tenant: %v", flood.Err)
	}
	if !errors.Is(late.Err, ErrAdmissionRejected) {
		t.Fatalf("late tenant err = %v, want ErrAdmissionRejected", late.Err)
	}
	if late.Makespan != 0 {
		t.Fatalf("rejected tenant reports a makespan of %v", late.Makespan)
	}
}
