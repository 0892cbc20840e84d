// The metropolis tier: a 100k-job, eight-grid federation benchmark
// exercising the allocation-free hot paths at two orders of magnitude
// above the standard federation benchmarks. Run through `make scale-bench` (it is deliberately outside
// the default `make bench` matrix — a single iteration simulates a
// hundred thousand brokered jobs).
package moteur

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/sim"
)

// BenchmarkFederationMetropolis runs 100,000 outputless jobs with a
// heterogeneous input corpus across eight heterogeneous grids, in 200
// pre-scheduled submission waves. The benchmark fails unless every
// iteration's result fingerprint is bit-identical.
func BenchmarkFederationMetropolis(b *testing.B) {
	b.Run("serial", benchMetropolis)
}

func benchMetropolis(b *testing.B) {
	const (
		nGrids  = 8
		waves   = 200
		perWave = 500
		jobs    = waves * perWave
		corpus  = 64
	)
	var fp string
	var simEnd sim.Time
	for n := 0; n < b.N; n++ {
		eng := sim.NewEngine()
		fed, err := federation.New(eng, federation.Config{
			Grids:  federation.HeterogeneousSpecs(nGrids, 3),
			Policy: federation.Ranked(),
		})
		if err != nil {
			b.Fatal(err)
		}
		// The corpus is deliberately heterogeneous: 64 files from 16 to
		// ~250 MB, placed round-robin across all eight grids, so stage
		// plans mix local, intra-grid and cross-grid classes.
		cat := fed.Catalog()
		names := make([]string, corpus)
		for i := range names {
			names[i] = fmt.Sprintf("corpus%03d", i)
			cat.RegisterAt(names[i], float64(16+(i*13)%240), grid.Site{Grid: fed.GridName(i % nGrids)})
		}
		makespans := make([]int64, jobs)
		for w := 0; w < waves; w++ {
			w := w
			eng.Schedule(sim.Time(w)*sim.Time(90*time.Second), func() {
				base := w * perWave
				for k := 0; k < perWave; k++ {
					id := base + k
					in := make([]string, id%3)
					for j := range in {
						in[j] = names[(id*7+j*11)%corpus]
					}
					spec := grid.JobSpec{
						Name:    "metro",
						Inputs:  in,
						Runtime: time.Duration(1+id%8) * time.Minute,
					}
					fed.Submit(spec, func(r *grid.JobRecord) {
						makespans[id] = int64(r.Makespan())
					})
				}
			})
		}
		eng.Run()

		h := fnv.New64a()
		var buf [8]byte
		for _, m := range makespans {
			binary.LittleEndian.PutUint64(buf[:], uint64(m))
			h.Write(buf[:])
		}
		for i := 0; i < fed.Size(); i++ {
			tl := fed.Telemetry(i)
			fmt.Fprintf(h, "%s|%d|%d|%.3f|%v|%v|", fed.GridName(i),
				tl.Dispatched, tl.Observed, tl.RemoteInMB, tl.SubmitEWMA, tl.QueueEWMA)
		}
		cur := fmt.Sprintf("%016x", h.Sum64())
		if fp == "" {
			fp = cur
		} else if fp != cur {
			b.Fatalf("iteration %d diverged: fingerprint %s, want %s", n, cur, fp)
		}
		simEnd = eng.Now()
	}
	b.ReportMetric(float64(jobs), "jobs")
	b.ReportMetric(simEnd.Seconds(), "sim_s")
}
