package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// minPairs is the fewest alternating parent/change pairs a gain may rest
// on.
const minPairs = 10

// specMetric is one end-to-end metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the comparison of one metric across the two sides.
type verdict struct {
	metric         specMetric
	parent, change []float64
	wins, pairs    int
	result         string // improved, unchanged, regressed, unresolved, too few pairs
}

// compareMetric applies the comparison rule to one metric, with the i-th
// run of each side forming pair i:
//   - improved: the change wins at least 9 in 10 pairs and its median
//     beats the parent's by more than the parent's interquartile range;
//   - unresolved: otherwise, when either side's interquartile range
//     exceeds the metric's bound (as a share of its median), unless every
//     change run beats every parent run;
//   - regressed: otherwise, when the change's median is worse than the
//     parent's by more than the bound;
//   - unchanged: everything else.
func compareMetric(m specMetric, parent, change []float64) verdict {
	v := verdict{metric: m, parent: parent, change: change, pairs: min(len(parent), len(change))}
	if v.pairs < minPairs {
		v.result = "too few pairs"
		return v
	}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if v.wins*10 >= 9*v.pairs && better(mc, mp) && math.Abs(mc-mp) > q3-q1 {
		v.result = "improved"
		return v
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if max(spread(parent), spread(change)) > m.Bound && !allBetter {
		v.result = "unresolved"
		return v
	}
	worse := (mc - mp) / math.Abs(mp)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		v.result = "regressed"
		return v
	}
	v.result = "unchanged"
	return v
}

// readRuns reads result lines (one JSON object per line; other lines are
// skipped) and returns each metric's values in run order.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r resultJSON
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareMain implements `bench compare [-spec BENCHMARK.json] PARENT
// CHANGE`: each file holds one workload's result lines, the i-th line of
// each forming pair i (run them alternately, parent first on even pairs).
// It exits 1 when a metric regressed, 2 on bad input.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] PARENT_RESULTS CHANGE_RESULTS")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench compare: %s: %v\n", *specPath, err)
		return 2
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %14s %14s %10s %7s  %s\n", "metric", "parent median", "change median", "spread", "wins", "verdict")
	for _, m := range spec.EndToEnd {
		v := compareMetric(m, parent[m.Name], change[m.Name])
		if v.result == "regressed" {
			code = 1
		}
		fmt.Fprintf(stdout, "%-12s %14.6g %14.6g %9.1f%% %3d/%-3d  %s\n", m.Name, median(v.parent), median(v.change),
			100*max(spread(v.parent), spread(v.change)), v.wins, v.pairs, v.result)
	}
	return code
}
