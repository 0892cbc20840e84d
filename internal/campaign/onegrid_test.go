package campaign

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// oneGridWorld is the equivalence world of TestOneGridCampaignGolden: six
// tenants with staggered arrivals rotating the four option mixes,
// adaptive granularity on every other tenant, and an admission gate tight
// enough to hold arrivals back.
func oneGridWorld() ([]TenantSpec, Admission) {
	mixes := []core.Options{
		spdp(),
		{ServiceParallelism: true, DataParallelism: true, JobGrouping: true},
		{DataParallelism: true},
		{ServiceParallelism: true, DataParallelism: true, DataGroupSize: 4, DataGroupWindow: time.Minute},
	}
	specs := make([]TenantSpec, 6)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Arrival: time.Duration(i) * 10 * time.Second,
			Opts:    mixes[i%len(mixes)],
			Build:   SyntheticChain(3, 16, 2*time.Minute, 5),
		}
		if i%2 == 0 {
			specs[i].Adapt = &AdaptiveGranularity{Interval: 10 * time.Minute, MaxBatch: 8}
		}
	}
	return specs, Admission{MaxUIBacklog: 20}
}

// oneGridFingerprint hashes everything a campaign observes: every tenant
// result (finish, makespan, admission delay, adaptations, overheads and
// phases), the global statistics, and every job record's lifecycle
// instants in submission order.
func oneGridFingerprint(rep *Report, records []*grid.JobRecord) uint64 {
	h := fnv.New64a()
	for _, tr := range rep.Tenants {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%v\n", tr.Name, tr.Arrival, tr.Finish, tr.Makespan, tr.AdmissionDelay, tr.Err != nil)
		for _, a := range tr.Adaptations {
			fmt.Fprintf(h, "  %d|%d|%d|%d\n", a.At, a.Batch, a.Predicted, a.Overhead)
		}
		fmt.Fprintf(h, "  %+v\n  %+v\n", tr.Overheads, tr.Phases)
	}
	fmt.Fprintf(h, "%+v\n%+v\n", rep.Global, rep.GlobalPhases)
	for _, r := range records {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d|%d|%d|%d|%d|%d\n", r.ID, r.Tenant, r.Status, r.Cluster, r.Attempts,
			r.Submitted, r.Accepted, r.Matched, r.Started, r.InputDone, r.Completed)
	}
	return h.Sum64()
}

// TestOneGridCampaignGolden pins a shared-grid campaign end to end on a
// deterministic test grid and on the calibrated production model
// (background load, failures). The constants were recorded when a
// campaign could still run on a bare grid.Grid; a one-grid federation
// with local links reproduces them exactly, which is why a campaign needs
// no other kind of site.
func TestOneGridCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  grid.Config
		want uint64
	}{
		{"testGrid16", testGrid(16), 0x7a63693febee18d9},
		{"default", grid.DefaultConfig(), 0xa9b448c1c5f04533},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, adm := oneGridWorld()
			rep, f := runOneGrid(t, tc.cfg, specs, adm)
			if got := oneGridFingerprint(rep, f.Records()); got != tc.want {
				t.Fatalf("one-grid campaign fingerprint = %#x, golden %#x (update the constant only for an intentional semantic change)",
					got, tc.want)
			}
		})
	}
}
