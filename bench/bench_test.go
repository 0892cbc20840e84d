package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/bronze"
)

// The smoke tests run every workload on tiny fixtures: they pin the
// benchmark's own correctness (tracing is transparent, the Table 1 loop
// is bronze.Table1, the daemon load is counted exactly) and its contract
// with BENCHMARK.json, not any performance number.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTracedFingerprintMatchesUntraced(t *testing.T) {
	data := readFixture(t, "tiny-churn.json")
	plain, err := runCampaignRep(data, "tiny-churn.json", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, err := runCampaignRep(data, "tiny-churn.json", 7, rec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fp != traced.fp {
		t.Fatalf("traced fingerprint %016x, untraced %016x", traced.fp, plain.fp)
	}
	for _, name := range []string{spanCompile, spanStart, spanReport, spanSteps, spanSubmit, spanCallback} {
		if rec.total(name).calls == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	for _, tr := range traced.rep.Tenants {
		if tr.Err != nil {
			t.Errorf("tenant %s: %v", tr.Name, tr.Err)
		}
	}
}

func TestPaperPassMatchesTable1(t *testing.T) {
	sizes := []int{2, 4}
	const seed = 5
	params := paperParams()
	params.Seed = seed
	rows, err := bronze.Table1(sizes, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*recorder{nil, newRecorder()} {
		p, err := runPaperPass([]uint64{seed}, sizes, rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			got := p.medians[row.Config]
			for i, want := range row.Times {
				if got[i] != want {
					t.Errorf("traced=%v %s at %d pairs: median %v, bronze.Table1 %v", rec != nil, row.Config, sizes[i], got[i], want)
				}
			}
		}
	}
}

func TestDaemonLoadCountedExactly(t *testing.T) {
	data := readFixture(t, "tiny-daemon.json")
	o, err := runDaemonOnline(runConfig{seed: 3, budget: 1500 * time.Millisecond, log: os.Stderr}, data, "tiny-daemon.json")
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Errorf("%d of %d requests failed", o.failed, o.attempted)
	}
	for _, p := range o.problems {
		t.Error(p) // includes moteur_submissions_total != requests accepted
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, n := range append(append(names(s.EndToEnd), names(s.PerLayer)...), workloadNames(s)...) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the limits", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	if got, want := workloadNames(s), benchWorkloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	matchDefs(t, "end_to_end", s.EndToEnd, endToEnd)
	matchDefs(t, "per_layer", s.PerLayer, perLayer)
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > s.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if s.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", s.EndToEnd[0].Name)
	}
}

// TestEveryMetricEmitted runs each workload runner on the fixtures, both
// untraced and traced, and requires every declared metric of that mode.
func TestEveryMetricEmitted(t *testing.T) {
	churn := readFixture(t, "tiny-churn.json")
	world := readFixture(t, "tiny-daemon.json")
	runners := map[string]func(runConfig) (*outcome, error){
		"paper-table1":  func(c runConfig) (*outcome, error) { return runPaperTable1(c, []int{2}) },
		"scenario":      func(c runConfig) (*outcome, error) { return campaignWorkload(2)(c, churn, "tiny-churn.json") },
		"daemon-online": func(c runConfig) (*outcome, error) { return runDaemonOnline(c, world, "tiny-daemon.json") },
	}
	for name, run := range runners {
		for _, trace := range []bool{false, true} {
			c := runConfig{seed: 2, budget: 300 * time.Millisecond, trace: trace, log: os.Stderr}
			if name == "daemon-online" {
				c.budget = time.Second
			}
			o, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			defs, values := endToEnd, o.endToEnd
			if trace {
				defs, values = perLayer, o.perLayer
			}
			for _, d := range defs {
				if _, ok := values[d.name]; !ok {
					t.Errorf("%s trace=%v: %s not emitted", name, trace, d.name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if values[d.name] <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, values[d.name])
					}
				}
			}
			if len(o.problems) > 0 {
				t.Errorf("%s trace=%v: %v", name, trace, o.problems)
			}
		}
	}
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func workloadNames(s benchmarkSpec) []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func benchWorkloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func matchDefs(t *testing.T, section string, spec []specMetric, defs []metricDef) {
	t.Helper()
	if len(spec) != len(defs) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", section, len(spec), len(defs))
		return
	}
	for i, d := range defs {
		m := spec[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the benchmark %s %s %s", section, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}
