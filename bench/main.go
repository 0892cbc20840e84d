// Command bench is the repository's benchmark. One invocation runs one
// workload (or, by default, all four in turn) for a fixed wall budget,
// checks that the simulated outcome is correct and deterministic, and
// prints one JSON result line per workload on stdout plus a readable
// table on stderr:
//
//	bash bench/run.sh --workload metropolis --seed 3 --seconds 20 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) time every layer boundary from outside — calls into the
// scenario compiler, the campaign, the engine's step loop, the broker
// submit and the enactor's completion callbacks — and report the
// per-layer metrics. `bench compare` applies the paired comparison rule
// to two sets of results. See README.md.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bronze"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// metricDef names one reported metric with its unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator or the daemon sees,
// reported by every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced
// run. A layer a workload does not exercise reports zero.
var perLayer = []metricDef{
	{"scenario.compile_s", "s", "lower"},
	{"bronze.build_s", "s", "lower"},
	{"campaign.start_s", "s", "lower"},
	{"campaign.report_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.pending_peak", "count", "lower"},
	{"sim.step_self_s", "s", "lower"},
	{"sim.burst_ns_per_event", "ns", "lower"},
	{"sim.spread_ns_per_event", "ns", "lower"},
	{"sim.resource_cycle_ns", "ns", "lower"},
	{"sim.makespan_s", "virtual_s", "lower"},
	{"sim.p95_tenant_s", "virtual_s", "lower"},
	{"federation.submit_calls", "count", "lower"},
	{"federation.submit_self_s", "s", "lower"},
	{"federation.submit_us_mean", "us", "lower"},
	{"federation.pick_ns", "ns", "lower"},
	{"federation.rebrokered", "count", "lower"},
	{"federation.repairs", "count", "lower"},
	{"federation.repaired_mb", "MB", "lower"},
	{"core.callback_calls", "count", "lower"},
	{"core.callback_self_s", "s", "lower"},
	{"grid.catalog_plan_ns", "ns", "lower"},
	{"grid.attempts", "count", "lower"},
	{"grid.failed", "count", "lower"},
	{"grid.remote_in_mb", "MB", "lower"},
	{"grid.wan_wait_s", "virtual_s", "lower"},
	{"grid.restages", "count", "lower"},
	{"grid.evictions", "count", "lower"},
	{"grid.evicted_mb", "MB", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"gc.alloc_mb", "MB", "lower"},
	{"gc.allocs_per_job", "count", "lower"},
	{"daemon.rate1000.p99_ms", "ms", "lower"},
	{"daemon.rate2000.p99_ms", "ms", "lower"},
	{"daemon.rate4000.p99_ms", "ms", "lower"},
	{"daemon.rate8000.p99_ms", "ms", "lower"},
	{"daemon.rate_ok_max", "1/s", "higher"},
	{"daemon.submit_p90_ms", "ms", "lower"},
	{"daemon.pacing_lag_ms", "ms", "lower"},
	{"daemon.scrape_ms", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// runConfig is what one workload run is given.
type runConfig struct {
	seed     uint64
	budget   time.Duration // wall time to spend measuring
	trace    bool
	traceDir string // when set, the traced run's spans and CPU profile go here
	log      io.Writer
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64
	problems          []string // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{endToEnd: make(map[string]float64), perLayer: make(map[string]float64)}
}

// check records a failed correctness check unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

// workloads lists the benchmark's workloads in run order; BENCHMARK.json
// states why each was chosen.
var workloads = []workload{
	{"paper-table1", func(c runConfig) (*outcome, error) { return runPaperTable1(c, bronze.PaperSizes) }},
	{"metropolis", onFile(campaignWorkload(1), "workloads/metropolis.json")},
	{"storage-churn", onFile(campaignWorkload(4), "workloads/storage-churn.json")},
	{"daemon-online", onFile(runDaemonOnline, "workloads/daemon-world.json")},
}

// onFile binds a scenario-driven workload to its embedded world file.
func onFile(run func(runConfig, []byte, string) (*outcome, error), file string) func(runConfig) (*outcome, error) {
	return func(c runConfig) (*outcome, error) {
		data, err := workloadFiles.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return run(c, data, file)
	}
}

// metricJSON is one metric of the printed result.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the printed result line of one workload run.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs the selected workloads and returns the exit code: 0 when
// every correctness check passed, 1 when one failed or a workload could
// not run, 2 on a usage error.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "root seed every input stream derives from")
	seconds := fs.Float64("seconds", 20, "wall seconds to spend measuring each workload")
	trace := fs.Int("trace", 0, "1 runs traced repetitions and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write each workload's spans (Chrome trace-event JSON) and CPU profile into this directory")
	out := fs.String("out", "", "also append the result lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, w := range selected {
		c := runConfig{
			seed:   *seed,
			budget: time.Duration(*seconds * float64(time.Second)),
			trace:  *trace == 1,
			log:    stderr,
		}
		if c.trace && *traceDir != "" {
			c.traceDir = filepath.Join(*traceDir, w.name)
		}
		line, ok, err := runOne(w, c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if *out != "" {
			if err := appendLine(*out, line); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// runOne runs one workload and renders its result line; ok reports
// whether every correctness check passed.
func runOne(w workload, c runConfig, stderr io.Writer) (line string, ok bool, err error) {
	var stopProfile func() error
	if c.traceDir != "" {
		if stopProfile, err = startProfile(c.traceDir + ".cpu.pprof"); err != nil {
			return "", false, err
		}
	}
	o, err := w.run(c)
	if stopProfile != nil {
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return "", false, err
	}
	defs, values := endToEnd, o.endToEnd
	if c.trace {
		defs, values = perLayer, o.perLayer
	}
	res := resultJSON{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	fmt.Fprintf(stderr, "%s (seed %d, %s, %d attempted, %d failed)\n", w.name, c.seed, map[bool]string{false: "untraced", true: "traced"}[c.trace], o.attempted, o.failed)
	for _, d := range defs {
		v, present := values[d.name]
		if !present || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", false, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(stderr, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "  CHECK FAILED: %s\n", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", false, err
	}
	return string(b), res.Correct, nil
}

// startProfile starts a CPU profile written to path.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func appendLine(path, line string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeat runs rep until the budget is spent. It always runs min
// repetitions, and starts another only while the slowest one so far would
// still finish within the budget.
func repeat(budget time.Duration, min int, rep func(i int) error) error {
	start := time.Now()
	var slowest time.Duration
	for i := 0; ; i++ {
		if i >= min && time.Since(start)+slowest > budget {
			return nil
		}
		t := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		if d := time.Since(t); d > slowest {
			slowest = d
		}
	}
}

// gcDelta is the Go runtime's work over a measured span.
type gcDelta struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
	mallocs uint64
}

// gcSince returns the runtime's work since before was read.
func gcSince(before runtime.MemStats) gcDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return gcDelta{
		cycles:  after.NumGC - before.NumGC,
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
	}
}

func (d gcDelta) plus(e gcDelta) gcDelta {
	return gcDelta{d.cycles + e.cycles, d.pauseNs + e.pauseNs, d.alloc + e.alloc, d.mallocs + e.mallocs}
}

// reportGC fills the gc.* metrics from the per-repetition medians of the
// untraced repetitions; jobs is the job attempts of one repetition.
func reportGC(o *outcome, deltas []gcDelta, jobs int) {
	var cycles, pause, alloc, mallocs []float64
	for _, d := range deltas {
		cycles = append(cycles, float64(d.cycles))
		pause = append(pause, float64(d.pauseNs)/1e6)
		alloc = append(alloc, float64(d.alloc)/1e6)
		mallocs = append(mallocs, float64(d.mallocs))
	}
	o.perLayer["gc.cycles"] = median(cycles)
	o.perLayer["gc.pause_ms"] = median(pause)
	o.perLayer["gc.alloc_mb"] = median(alloc)
	o.perLayer["gc.allocs_per_job"] = median(mallocs) / float64(max(jobs, 1))
}

// liveHeapMB collects garbage and returns the live heap in MB; callers
// keep the last world reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// overheadPct is the tracing overhead: how much slower the traced
// repetitions ran than the untraced ones, in percent of the traced rate.
func overheadPct(untraced, traced []float64) float64 {
	return (median(untraced)/median(traced) - 1) * 100
}

// p95Seconds is the nearest-rank 95th percentile of ds, in seconds.
func p95Seconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	return percentile(secs, 95)
}
