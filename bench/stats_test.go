package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{10, 20, 30}, 20, 10, 30},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
}

// series returns n values around base, jittered by ±jitter in a fixed
// pattern.
func series(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + jitter*float64(i%5-2)/2
	}
	return out
}

func TestCompareMetric(t *testing.T) {
	lower := specMetric{Name: "latency_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	cases := []struct {
		name           string
		m              specMetric
		parent, change []float64
		want           string
	}{
		{"clear gain", lower, series(10, 100, 2), series(10, 80, 2), "improved"},
		{"clear gain, higher is better", higher, series(10, 100, 2), series(10, 120, 2), "improved"},
		{"noise", lower, series(10, 100, 2), series(10, 100.5, 2), "unchanged"},
		{"regression beyond bound", lower, series(10, 100, 2), series(10, 120, 2), "regressed"},
		{"slower within bound", lower, series(10, 100, 2), series(10, 105, 2), "unchanged"},
		{"spread above bound", lower, series(10, 100, 40), series(10, 104, 40), "unresolved"},
		{"too few pairs", lower, series(9, 100, 2), series(9, 80, 2), "too few pairs"},
	}
	for _, c := range cases {
		if got := compareMetric(c.m, c.parent, c.change).result; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A gain needs 9 wins in 10 pairs, not just a better median.
	parent := series(10, 100, 2)
	change := series(10, 90, 2)
	change[0], change[1] = 150, 150
	if got := compareMetric(lower, parent, change).result; got == "improved" {
		t.Errorf("8 wins of 10 counted as improved")
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat float64) string {
		var b strings.Builder
		for _, v := range series(10, lat, 2) {
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms":{"value":`)
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
			b.WriteString(`,"unit":"ms"}}}` + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-spec", spec, write("p", 100), write("c", 130)}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("output lacks the verdict:\n%s", out.String())
	}
}
