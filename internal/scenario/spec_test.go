package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// baselineDoc is a minimal valid scenario; rejection cases below are
// written as whole documents so each test sees the real line numbers.
const baselineDoc = `{
  "name": "base",
  "grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],
  "links": {"local": true},
  "policies": {"p": {"serviceParallelism": true}},
  "tenants": [{
    "prefix": "t", "count": 2, "policy": "p",
    "arrivals": {"kind": "staggered", "spread": "30s"},
    "workload": {"stages": 1, "items": 2, "runtime": "10s",
                 "sizes": {"kind": "constant", "meanMB": 5}}
  }]
}`

// lineOf returns the 1-based line of the first occurrence of token as a
// quoted JSON string — the anchor rule validation errors advertise.
func lineOf(t *testing.T, doc, token string) int {
	t.Helper()
	i := strings.Index(doc, `"`+token+`"`)
	if i < 0 {
		t.Fatalf("token %q not present in the document", token)
	}
	return 1 + strings.Count(doc[:i], "\n")
}

// mustReject parses doc and asserts the error carries both the message
// and, when token is non-empty, a "line N" anchor pointing at the
// token's source line.
func mustReject(t *testing.T, doc, token, wantMsg string) {
	t.Helper()
	_, err := Parse([]byte(doc), "test.json")
	if err == nil {
		t.Fatalf("spec accepted, want rejection containing %q", wantMsg)
	}
	if !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("error %q does not contain %q", err, wantMsg)
	}
	if token != "" {
		anchor := fmt.Sprintf("line %d:", lineOf(t, doc, token))
		if !strings.Contains(err.Error(), anchor) {
			t.Fatalf("error %q not anchored at %q (token %q)", err, anchor, token)
		}
	}
}

// edit returns the baseline with one line-level substitution applied.
func edit(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(baselineDoc, old) {
		t.Fatalf("baseline does not contain %q", old)
	}
	return strings.Replace(baselineDoc, old, new, 1)
}

func TestSpecBaselineValidates(t *testing.T) {
	if _, err := Parse([]byte(baselineDoc), "test.json"); err != nil {
		t.Fatal(err)
	}
}

// TestSpecRejectsStructuralErrors covers the decode layer: syntax
// errors, unknown fields and malformed durations all anchor to a line.
func TestSpecRejectsStructuralErrors(t *testing.T) {
	// Syntax error: a dangling comma, anchored by byte offset.
	doc := edit(t, `"links": {"local": true},`, `"links": {"local": true},,`)
	mustReject(t, doc, "", "line 4:")

	// Unknown top-level field, anchored to its own name.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "frobnicate": 1,`)
	mustReject(t, doc, "frobnicate", `unknown field "frobnicate"`)

	// A bare-number duration is rejected: seconds vs milliseconds
	// ambiguity is exactly what the string form exists to prevent.
	doc = edit(t, `"runtime": "10s"`, `"runtime": 10`)
	mustReject(t, doc, "", "duration must be a string")

	// A duration with a bogus unit anchors to the offending token.
	doc = edit(t, `"runtime": "10s"`, `"runtime": "10 parsecs"`)
	mustReject(t, doc, "10 parsecs", "bad duration")
}

// TestSpecRejectsWorldErrors covers grid, link, outage and storage
// validation with line anchors.
func TestSpecRejectsWorldErrors(t *testing.T) {
	mustReject(t, edit(t, `"name": "base",`, ``), "", "missing scenario name")
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`, `"grids": [],`),
		"base", "no grids")
	mustReject(t, edit(t, `"preset": "quiet"`, `"preset": "warp"`), "warp", `unknown preset "warp"`)
	mustReject(t, edit(t, `"grids": [{"name": "g0", "preset": "quiet", "nodes": 4}],`,
		`"grids": [{"name": "g0"}, {"name": "g0"}],`), "g0", `duplicate grid name "g0"`)

	// links.local is exclusive with every other link field.
	mustReject(t, edit(t, `"links": {"local": true},`, `"links": {"local": true, "wanMBps": 2},`),
		"links", "links.local excludes")

	// A pair override naming a grid outside the federation.
	doc := edit(t, `"links": {"local": true},`,
		`"links": {"wanMBps": 2, "wanLatency": "5s",
             "pairs": [{"from": "g0", "to": "gX", "mbps": 1, "latency": "2s"}]},`)
	mustReject(t, doc, "gX", `unknown grid "gX"`)

	// Overlapping outage windows of one grid and mode, the PR-6 rule.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "outages": [{"grid": "g0", "at": "10m", "for": "30m"},
              {"grid": "g0", "at": "20m", "for": "5m"}],`)
	mustReject(t, doc, "g0", `outage windows of "g0" overlap`)

	// An open-ended first window shadows everything after it.
	doc = edit(t, `"links": {"local": true},`, `"links": {"local": true},
  "outages": [{"grid": "g0", "at": "10m"},
              {"grid": "g0", "at": "20m", "for": "5m"}],`)
	mustReject(t, doc, "g0", `outage windows of "g0" overlap`)

	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "storage": {"capacityMB": 100, "eviction": "fifo"},`),
		"fifo", `unknown eviction policy "fifo"`)
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "broker": {"policy": "random"},`),
		"random", `unknown policy "random"`)
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "wanStreams": -1,`),
		"wanStreams", "negative wanStreams")
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true},
  "waves": {"waves": 2, "spacing": "10m", "fraction": 1.5, "duration": "5m"},`),
		"fraction", "waves.fraction 1.5 outside (0, 1]")
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "admission": {"maxUIBacklog": 0, "retry": "1m"},`),
		"admission", "admission.maxUIBacklog must be positive")
	// Alpha 0 selects the default, so the bound is closed at both ends.
	mustReject(t, edit(t, `"links": {"local": true},`,
		`"links": {"local": true}, "broker": {"ewmaAlpha": 1.5},`),
		"ewmaAlpha", "broker EWMA alpha 1.5 outside [0, 1]")
}

// TestSpecRejectsTenantErrors covers tenant group, arrival and workload
// validation with line anchors.
func TestSpecRejectsTenantErrors(t *testing.T) {
	mustReject(t, edit(t, `"policy": "p",`, `"policy": "nope",`),
		"nope", `references missing policy "nope"`)
	mustReject(t, edit(t, `"policy": "p",`, `"policy": ["p", "nope"],`),
		"nope", `references missing policy "nope"`)
	mustReject(t, edit(t, `"policy": "p",`, `"policy": [],`),
		"t", `tenant group "t" names no policy`)
	mustReject(t, edit(t, `"policy": "p",`, `"policy": 5,`),
		"", "policy must be a mix name or a list of names")
	mustReject(t, edit(t, `"prefix": "t", "count": 2, "policy": "p",`,
		`"prefix": "t", "count": -2, "policy": "p",`),
		"t", `tenant group "t" has a negative count`)
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "sometimes"`),
		"sometimes", `unknown arrival kind "sometimes"`)
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "poisson"`),
		"t", "poisson arrivals need a positive meanIAT")
	mustReject(t, edit(t, `"kind": "staggered", "spread": "30s"`, `"kind": "bursty", "meanIAT": "5m"`),
		"t", "bursty arrivals need a positive burst")
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "uniform", "meanMB": 5}`),
		"uniform", `unknown size kind "uniform"`)
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "pareto", "minMB": 0, "alpha": 1.5}`),
		"t", "pareto sizes need a positive minMB and alpha")
	mustReject(t, edit(t, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "pareto", "minMB": 4, "alpha": 1.5, "maxMB": 2}`),
		"t", "size cap below the minimum")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 0, "items": 2, "runtime": "10s",`),
		"t", "needs positive stages and items")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 1, "items": 2, "runtime": "10s", "skew": 1.2,`),
		"t", "placement skew 1.2 outside [0, 1]")
	mustReject(t, edit(t, `"workload": {"stages": 1, "items": 2, "runtime": "10s",`,
		`"workload": {"stages": 1, "items": 2, "runtime": "10s", "homes": ["gZ"],`),
		"gZ", `homes at unknown grid "gZ"`)

	// Duplicate tenant prefixes collide in report rows and rng forks.
	doc := edit(t, `  "tenants": [{`, `  "tenants": [{
    "prefix": "t", "count": 1, "policy": "p",
    "workload": {"stages": 1, "items": 1, "runtime": "5s",
                 "sizes": {"kind": "constant", "meanMB": 5}}
  }, {`)
	mustReject(t, doc, "t", `duplicate tenant group prefix "t"`)
}

// TestPolicyListRotates pins the policy list semantics: member i of a
// group runs Policy[i%len].
func TestPolicyListRotates(t *testing.T) {
	doc := edit(t, `"policies": {"p": {"serviceParallelism": true}},`,
		`"policies": {"p": {"serviceParallelism": true}, "q": {"dataParallelism": true}},`)
	doc = strings.Replace(doc, `"count": 2, "policy": "p",`, `"count": 3, "policy": ["p", "q"],`, 1)
	s, err := Parse([]byte(doc), "test.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(sim.NewEngine(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true} {
		if o := w.Tenants[i].Opts; o.ServiceParallelism != want || o.DataParallelism == want {
			t.Errorf("tenant %d runs %+v, want mix %d", i, o, i%2)
		}
	}
}

// TestHeterogeneousGridsMatchLibrary ties the hetero-* library files to
// the generator behind cmd/federation's flag mode: each file's grids
// section is exactly HeterogeneousGrids(4, 1) written out.
func TestHeterogeneousGridsMatchLibrary(t *testing.T) {
	want := HeterogeneousGrids(4, 1)
	for _, name := range []string{"hetero-scale", "hetero-locality", "hetero-contention"} {
		s, err := Load("../../scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Grids, want) {
			t.Errorf("%s grids differ from HeterogeneousGrids(4, 1):\n got %+v\nwant %+v", name, s.Grids, want)
		}
	}
	if g := HeterogeneousGrids(7, 3)[6]; g.Name != "grid06" || len(g.Clusters) != 2 || g.Seed != 9 || g.SubmitMean.D() != 140*time.Second {
		t.Fatalf("grid 6 of 7 = %+v, want two clusters, seed 9, 140s submit mean", g)
	}
}

// TestOverridesApply covers the CLI override layer: each flag replaces
// its spec field, outages append, and the overrides that would silently
// not apply are rejected.
func TestOverridesApply(t *testing.T) {
	twoGroups := strings.Replace(baselineDoc, `  "tenants": [{`, `  "tenants": [{
    "prefix": "u", "count": 1, "policy": "p",
    "workload": {"stages": 1, "items": 1, "runtime": "5s",
                 "sizes": {"kind": "constant", "meanMB": 5}}
  }, {`, 1)
	lognormal := strings.Replace(baselineDoc, `"sizes": {"kind": "constant", "meanMB": 5}`,
		`"sizes": {"kind": "lognormal", "meanMB": 5, "sdMB": 1}`, 1)
	poisson := strings.Replace(baselineDoc, `"kind": "staggered", "spread": "30s"`, `"kind": "poisson", "meanIAT": "1m"`, 1)
	for _, tc := range []struct {
		name    string
		doc     string
		ov      Overrides
		ok      func(*Spec) bool
		wantErr string
	}{
		{name: "seed", ov: Overrides{Seed: ptr(uint64(7))},
			ok: func(s *Spec) bool { return s.Seed == 7 }},
		{name: "policy", ov: Overrides{Policy: ptr("rr")},
			ok: func(s *Spec) bool { return s.Broker.Policy == "rr" && s.Broker.Rebroker == 0 }},
		{name: "rebroker", ov: Overrides{Rebroker: ptr(3)},
			ok: func(s *Spec) bool { return s.Broker.Rebroker == 3 && s.Broker.Policy == "" }},
		{name: "storage", ov: Overrides{SECapacityMB: ptr(100.0), SEEviction: ptr("popularity"), MinReplicas: ptr(2)},
			ok: func(s *Spec) bool {
				return *s.Storage == StorageSpec{CapacityMB: 100, Eviction: "popularity", MinReplicas: 2}
			}},
		{name: "outages-append", ov: Overrides{Outages: []OutageSpec{{Grid: "g0", At: Duration(10 * time.Minute), Storage: true}}},
			ok: func(s *Spec) bool { return len(s.Outages) == 1 && s.Outages[0].Grid == "g0" && s.Outages[0].Storage }},
		{name: "tenants", ov: Overrides{Tenants: ptr(5)},
			ok: func(s *Spec) bool { return s.Tenants[0].Count == 5 }},
		{name: "workload", ov: Overrides{Stages: ptr(3), Items: ptr(4), FileMB: ptr(7.0), Spread: ptr(time.Minute)},
			ok: func(s *Spec) bool {
				g := s.Tenants[0]
				return g.Workload.Stages == 3 && g.Workload.Items == 4 && g.Workload.Sizes.MeanMB == 7 && g.Arrivals.Spread.D() == time.Minute
			}},
		{name: "tenants-ambiguous", doc: twoGroups, ov: Overrides{Tenants: ptr(3)},
			wantErr: "-tenants override is ambiguous over 2 tenant groups"},
		{name: "tenants-zero", ov: Overrides{Tenants: ptr(0)},
			wantErr: "-tenants override must be positive"},
		{name: "filemb-without-constant", doc: lognormal, ov: Overrides{FileMB: ptr(7.0)},
			wantErr: "-file-mb override needs a constant-size tenant group"},
		{name: "spread-without-staggered", doc: poisson, ov: Overrides{Spread: ptr(time.Minute)},
			wantErr: "-spread override needs a staggered tenant group"},
		{name: "revalidates", ov: Overrides{Outages: []OutageSpec{{Grid: "gX"}}},
			wantErr: `outage references unknown grid "gX"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := tc.doc
			if doc == "" {
				doc = baselineDoc
			}
			s, err := Parse([]byte(doc), "test.json")
			if err != nil {
				t.Fatal(err)
			}
			err = tc.ov.Apply(s)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Apply = %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.ok(s) {
				t.Fatalf("override not applied: %+v", s)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
