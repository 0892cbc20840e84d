package moteur

import "testing"

// TestFederationContentionAllocBudget is the allocation regression gate
// of the federation hot paths: it runs the hetero-contention library
// scenario through the BenchmarkScenario harness and fails if the
// per-job heap allocation count regresses more than 10% over what was
// measured. The budget (28 allocations per job, ~25.4 measured after the
// arena/pool rework — pooled jobRuns and stage plans, closure-free
// lifecycle events, recycled resource holds, arena-backed records and
// catalog entries — and the allocation-lean wrapper invocation) covers
// the whole pipeline — world compilation, submission, brokering, staging
// over the contended fabric, compute, settlement, and the services layer
// above it.
func TestFederationContentionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate runs the full contention benchmark")
	}
	res := testing.Benchmark(func(b *testing.B) { benchScenario(b, "scenarios/hetero-contention.json") })
	jobs := res.Extra["jobs"]
	if jobs <= 0 {
		t.Fatalf("benchmark reported no jobs metric: %v", res)
	}
	perJob := float64(res.AllocsPerOp()) / jobs
	const budget = 28.0
	if perJob > budget {
		t.Fatalf("federation contention allocates %.1f objects per job (budget %.0f): the hot-path pooling regressed", perJob, budget)
	}
	t.Logf("federation contention: %.1f allocs/job (budget %.0f)", perJob, budget)
}
