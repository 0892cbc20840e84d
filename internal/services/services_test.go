package services

import (
	"strings"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/sim"
)

// testGrid returns a quiet deterministic grid: fixed latencies, no
// background load, no failures.
func testGrid(eng *sim.Engine, nodes int) *grid.Grid {
	cfg := grid.IdealConfig(nodes)
	cfg.Overheads = grid.OverheadConfig{
		SubmitMean:   2 * time.Second,
		BrokerMean:   3 * time.Second,
		DispatchMean: 5 * time.Second,
	}
	return grid.New(eng, cfg)
}

const crestLinesXML = `<description>
<executable name="CrestLines.pl">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="CrestLines.pl"/>
<input name="floating_image" option="-im1"><access type="GFN"/></input>
<input name="reference_image" option="-im2"><access type="GFN"/></input>
<input name="scale" option="-s"/>
<output name="crest_reference" option="-c1"><access type="GFN"/></output>
<output name="crest_floating" option="-c2"><access type="GFN"/></output>
</executable>
</description>`

const crestMatchXML = `<description>
<executable name="CrestMatch">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="cmatch"/>
<input name="crest_reference" option="-c1"><access type="GFN"/></input>
<input name="crest_floating" option="-c2"><access type="GFN"/></input>
<input name="reference_image" option="-im2"><access type="GFN"/></input>
<output name="transfo" option="-o"><access type="GFN"/></output>
</executable>
</description>`

func mustParse(t *testing.T, xml string) *descriptor.Description {
	t.Helper()
	d, err := descriptor.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func crestWrapper(t *testing.T, g *grid.Grid, runtime time.Duration) *Wrapper {
	t.Helper()
	w, err := NewWrapper(g, mustParse(t, crestLinesXML), ConstantRuntime(runtime),
		map[string]float64{"crest_reference": 1.0, "crest_floating": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func matchWrapper(t *testing.T, g *grid.Grid, runtime time.Duration) *Wrapper {
	t.Helper()
	w, err := NewWrapper(g, mustParse(t, crestMatchXML), ConstantRuntime(runtime),
		map[string]float64{"transfo": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLocalInvoke(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewLocal(eng, "echo", 2, ConstantRuntime(10*time.Second), nil)
	var resp Response
	var at sim.Time
	svc.Invoke(Request{Inputs: map[string]string{"in": "v1"}}, func(r Response) {
		resp = r
		at = eng.Now()
	})
	eng.Run()
	if at != sim.Time(10*time.Second) {
		t.Fatalf("completed at %v, want 10s", at)
	}
	if resp.Outputs["in"] != "v1" {
		t.Fatalf("echo outputs = %v", resp.Outputs)
	}
	if resp.Err != nil || resp.Job != nil {
		t.Fatalf("local response carries err/job: %+v", resp)
	}
}

func TestLocalSaturation(t *testing.T) {
	// A single-host service with capacity 2 serializes beyond 2 concurrent
	// calls — the paper's motivation for submitting to a grid instead.
	eng := sim.NewEngine()
	svc := NewLocal(eng, "svc", 2, ConstantRuntime(10*time.Second), nil)
	finished := 0
	for i := 0; i < 6; i++ {
		svc.Invoke(Request{}, func(Response) { finished++ })
	}
	if svc.Busy() != 2 || svc.Waiting() != 4 {
		t.Fatalf("busy=%d waiting=%d, want 2/4", svc.Busy(), svc.Waiting())
	}
	eng.Run()
	if finished != 6 {
		t.Fatalf("finished = %d", finished)
	}
	if eng.Now() != sim.Time(30*time.Second) {
		t.Fatalf("6 calls on capacity 2 took %v, want 30s", eng.Now())
	}
}

func TestLocalCustomFunction(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewLocal(eng, "upper", 1, ConstantRuntime(time.Second), func(req Request) map[string]string {
		return map[string]string{"out": strings.ToUpper(req.Inputs["in"])}
	})
	var resp Response
	svc.Invoke(Request{Inputs: map[string]string{"in": "abc"}}, func(r Response) { resp = r })
	eng.Run()
	if resp.Outputs["out"] != "ABC" {
		t.Fatalf("outputs = %v", resp.Outputs)
	}
}

func TestWrapperInvoke(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	g.Catalog().Register("gfn://ref0", 7.8)
	g.Catalog().Register("gfn://flo0", 7.8)
	var scale string
	w, err := NewWrapper(g, mustParse(t, crestLinesXML), func(req Request) time.Duration {
		scale = req.Inputs["scale"]
		return time.Minute
	}, map[string]float64{"crest_reference": 1.0, "crest_floating": 1.0})
	if err != nil {
		t.Fatal(err)
	}

	var resp Response
	w.Invoke(Request{
		Index: []int{0},
		Inputs: map[string]string{
			"floating_image": "gfn://flo0", "reference_image": "gfn://ref0", "scale": "1.5",
		},
	}, func(r Response) { resp = r })
	eng.Run()

	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// Outputs are fresh GFNs registered in the catalog.
	for _, port := range []string{"crest_reference", "crest_floating"} {
		gfn := resp.Outputs[port]
		if !strings.HasPrefix(gfn, "gfn://CrestLines.pl/") {
			t.Errorf("output %s = %q, want wrapper-minted GFN", port, gfn)
		}
		if !g.Catalog().Has(gfn) {
			t.Errorf("output %s not registered in catalog", port)
		}
	}
	if resp.Job == nil {
		t.Fatal("grid-backed response carries no job")
	}
	job := resp.Job
	// The job carries the dynamic bindings (Fig. 8): the code's name, its
	// GFN inputs (-im1, -im2) and the minted outputs (-c1, -c2), each in
	// declaration order; the -s parameter reaches the code.
	if job.Spec.Name != "CrestLines.pl[0]" {
		t.Errorf("job name = %q", job.Spec.Name)
	}
	// Only the two GFN files are staged; the parameter is not.
	if len(job.Spec.Inputs) != 2 || job.Spec.Inputs[0] != "gfn://flo0" || job.Spec.Inputs[1] != "gfn://ref0" {
		t.Errorf("staged inputs = %v, want [gfn://flo0 gfn://ref0]", job.Spec.Inputs)
	}
	if outs := job.Spec.Outputs; len(outs) != 2 ||
		outs[0].Name != resp.Outputs["crest_reference"] || outs[1].Name != resp.Outputs["crest_floating"] {
		t.Errorf("declared outputs = %v, want the minted crest_reference then crest_floating", outs)
	}
	if scale != "1.5" {
		t.Errorf("the code saw scale %q, want 1.5", scale)
	}
}

func TestWrapperUniqueOutputNames(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	g.Catalog().Register("r", 1)
	g.Catalog().Register("f", 1)
	w := crestWrapper(t, g, time.Second)
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		i := i
		w.Invoke(Request{
			Index:  []int{i},
			Inputs: map[string]string{"floating_image": "f", "reference_image": "r", "scale": "1"},
		}, func(r Response) {
			for _, v := range r.Outputs {
				if seen[v] {
					t.Errorf("duplicate output GFN %q across invocations", v)
				}
				seen[v] = true
			}
		})
	}
	eng.Run()
	if len(seen) != 6 {
		t.Fatalf("distinct outputs = %d, want 6", len(seen))
	}
}

func TestWrapperMissingInputFileFails(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	w := crestWrapper(t, g, time.Second)
	var resp Response
	w.Invoke(Request{
		Inputs: map[string]string{"floating_image": "gfn://nope", "reference_image": "gfn://nope2", "scale": "1"},
	}, func(r Response) { resp = r })
	eng.Run()
	if resp.Err == nil {
		t.Fatal("invocation with unregistered inputs succeeded")
	}
}

func TestWrapperUnboundInputFails(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	w := crestWrapper(t, g, time.Second)
	var resp Response
	w.Invoke(Request{Inputs: map[string]string{"scale": "1"}}, func(r Response) { resp = r })
	eng.Run()
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "not bound") {
		t.Fatalf("unbound input not reported: %v", resp.Err)
	}
}

// An invocation missing a declared parameter fails before a job is
// submitted, through every invocation path.
func TestUnboundParameterNotSubmitted(t *testing.T) {
	const want = `descriptor CrestLines.pl: input "scale" not bound`
	images := map[string]string{"floating_image": "gfn://flo0", "reference_image": "gfn://ref0"}
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	g.Catalog().Register("gfn://ref0", 7.8)
	g.Catalog().Register("gfn://flo0", 7.8)

	var single Response
	crestWrapper(t, g, time.Minute).Invoke(Request{Index: []int{0}, Inputs: images},
		func(r Response) { single = r })
	var batch []Response
	crestWrapper(t, g, time.Minute).InvokeBatch([]Request{
		{Index: []int{0}, Inputs: map[string]string{"floating_image": "gfn://flo0", "reference_image": "gfn://ref0", "scale": "1"}},
		{Index: []int{1}, Inputs: images},
	}, func(rs []Response) { batch = rs })
	var grouped Response
	buildGroup(t, g).Invoke(Request{Index: []int{0}, Inputs: map[string]string{
		"CrestLines.pl.floating_image":  "gfn://flo0",
		"CrestLines.pl.reference_image": "gfn://ref0",
		"CrestMatch.reference_image":    "gfn://ref0",
	}}, func(r Response) { grouped = r })
	eng.Run()

	if single.Err == nil || single.Err.Error() != want {
		t.Errorf("Invoke err = %v, want %s", single.Err, want)
	}
	if len(batch) != 2 {
		t.Fatalf("InvokeBatch answered %d responses, want 2", len(batch))
	}
	for i, r := range batch {
		if r.Err == nil || r.Err.Error() != want {
			t.Errorf("InvokeBatch resp %d err = %v, want %s", i, r.Err, want)
		}
	}
	if grouped.Err == nil || !strings.HasPrefix(grouped.Err.Error(), "services: group CrestLines.pl+CrestMatch: ") ||
		!strings.HasSuffix(grouped.Err.Error(), `input "CrestLines.pl.scale" not bound`) {
		t.Errorf("Grouped.Invoke err = %v, want the group's unbound CrestLines.pl.scale", grouped.Err)
	}
	if n := len(g.Records()); n != 0 {
		t.Fatalf("%d jobs submitted for invocations missing a parameter, want 0", n)
	}
}

func TestNewWrapperValidation(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	d := mustParse(t, crestLinesXML)
	if _, err := NewWrapper(g, d, nil, map[string]float64{"crest_reference": 1, "crest_floating": 1}); err == nil {
		t.Error("nil runtime model accepted")
	}
	if _, err := NewWrapper(g, d, ConstantRuntime(time.Second), map[string]float64{"crest_reference": 1}); err == nil {
		t.Error("missing output size accepted")
	}
}

// buildGroup fuses crestLines+crestMatch the way the paper groups them.
func buildGroup(t *testing.T, g *grid.Grid) *Grouped {
	t.Helper()
	cl := crestWrapper(t, g, time.Minute)
	cm := matchWrapper(t, g, 30*time.Second)
	grp, err := NewGrouped("CrestLines.pl+CrestMatch", []GroupMember{
		{W: cl},
		{W: cm, Internal: map[string]InternalRef{
			"crest_reference": {Member: 0, Port: "crest_reference"},
			"crest_floating":  {Member: 0, Port: "crest_floating"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return grp
}

func TestGroupedSingleJob(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 4)
	g.Catalog().Register("gfn://ref0", 7.8)
	g.Catalog().Register("gfn://flo0", 7.8)
	grp := buildGroup(t, g)

	var resp Response
	grp.Invoke(Request{
		Index: []int{0},
		Inputs: map[string]string{
			"CrestLines.pl.floating_image":  "gfn://flo0",
			"CrestLines.pl.reference_image": "gfn://ref0",
			"CrestLines.pl.scale":           "1.5",
			"CrestMatch.reference_image":    "gfn://ref0",
		},
	}, func(r Response) { resp = r })
	eng.Run()

	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if n := len(g.Records()); n != 1 || resp.Job != g.Records()[0] {
		t.Fatalf("group submitted %d jobs, want exactly 1 carried by the response", n)
	}
	job := resp.Job
	if job.Spec.Name != "CrestLines.pl+CrestMatch[0]" {
		t.Errorf("job name = %q", job.Spec.Name)
	}
	// Intermediates are node-local: no tmp/ name is staged or declared.
	for _, in := range job.Spec.Inputs {
		if strings.HasPrefix(in, "tmp/") {
			t.Errorf("intermediate %q staged", in)
		}
	}
	for _, out := range job.Spec.Outputs {
		if strings.HasPrefix(out.Name, "tmp/") {
			t.Errorf("intermediate %q declared", out.Name)
		}
	}
	// Runtime is the sum of member runtimes.
	if job.Spec.Runtime != 90*time.Second {
		t.Errorf("runtime = %v, want 90s", job.Spec.Runtime)
	}
	// Shared external input staged once.
	count := 0
	for _, in := range job.Spec.Inputs {
		if in == "gfn://ref0" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("gfn://ref0 staged %d times, want 1", count)
	}
	// Only the last member's outputs are registered.
	if len(job.Spec.Outputs) != 1 || !strings.Contains(job.Spec.Outputs[0].Name, "transfo") {
		t.Errorf("registered outputs = %v, want only the final transfo", job.Spec.Outputs)
	}
	if resp.Outputs["transfo"] == "" {
		t.Error("group response missing final output")
	}
	// Intermediates are NOT in the catalog.
	for _, name := range g.Catalog().Names() {
		if strings.Contains(name, "crest_reference") {
			t.Errorf("intermediate %q leaked into the catalog", name)
		}
	}
}

func TestGroupedVsSeparateOverhead(t *testing.T) {
	// The whole point of grouping: one grid overhead instead of two.
	run := func(grouped bool) sim.Time {
		eng := sim.NewEngine()
		g := testGrid(eng, 4)
		g.Catalog().Register("gfn://ref0", 7.8)
		g.Catalog().Register("gfn://flo0", 7.8)
		var end sim.Time
		if grouped {
			grp := buildGroup(t, g)
			grp.Invoke(Request{Inputs: map[string]string{
				"CrestLines.pl.floating_image":  "gfn://flo0",
				"CrestLines.pl.reference_image": "gfn://ref0",
				"CrestLines.pl.scale":           "1.5",
				"CrestMatch.reference_image":    "gfn://ref0",
			}}, func(Response) { end = eng.Now() })
		} else {
			cl := crestWrapper(t, g, time.Minute)
			cm := matchWrapper(t, g, 30*time.Second)
			cl.Invoke(Request{Inputs: map[string]string{
				"floating_image": "gfn://flo0", "reference_image": "gfn://ref0", "scale": "1.5",
			}}, func(r1 Response) {
				cm.Invoke(Request{Inputs: map[string]string{
					"crest_reference": r1.Outputs["crest_reference"],
					"crest_floating":  r1.Outputs["crest_floating"],
					"reference_image": "gfn://ref0",
				}}, func(Response) { end = eng.Now() })
			})
		}
		eng.Run()
		return end
	}
	grouped, separate := run(true), run(false)
	if grouped >= separate {
		t.Fatalf("grouping did not reduce makespan: grouped=%v separate=%v", grouped, separate)
	}
	// The saving must be about one full overhead chain (submit+broker+dispatch = 10s here).
	if saving := separate - grouped; saving < sim.Time(9*time.Second) {
		t.Errorf("saving = %v, want ≥ ~10s (one overhead chain)", saving)
	}
}

func TestGroupedExternalInputs(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	grp := buildGroup(t, g)
	got := grp.ExternalInputs()
	want := []string{
		"CrestLines.pl.floating_image",
		"CrestLines.pl.reference_image",
		"CrestLines.pl.scale",
		"CrestMatch.reference_image",
	}
	if len(got) != len(want) {
		t.Fatalf("ExternalInputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExternalInputs = %v, want %v", got, want)
		}
	}
	outs := grp.OutputNames()
	if len(outs) != 1 || outs[0] != "transfo" {
		t.Fatalf("OutputNames = %v", outs)
	}
}

func TestGroupedUnboundExternal(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	grp := buildGroup(t, g)
	var resp Response
	grp.Invoke(Request{Inputs: map[string]string{}}, func(r Response) { resp = r })
	eng.Run()
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "not bound") {
		t.Fatalf("unbound external input not reported: %v", resp.Err)
	}
}

func TestNewGroupedValidation(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	cl := crestWrapper(t, g, time.Second)
	cm := matchWrapper(t, g, time.Second)

	if _, err := NewGrouped("solo", []GroupMember{{W: cl}}); err == nil {
		t.Error("single-member group accepted")
	}
	if _, err := NewGrouped("badport", []GroupMember{
		{W: cl},
		{W: cm, Internal: map[string]InternalRef{"crest_reference": {Member: 0, Port: "nope"}}},
	}); err == nil {
		t.Error("internal ref to nonexistent output accepted")
	}
	if _, err := NewGrouped("badmember", []GroupMember{
		{W: cl, Internal: map[string]InternalRef{"scale": {Member: 0, Port: "crest_reference"}}},
		{W: cm},
	}); err == nil {
		t.Error("self/forward internal ref accepted")
	}
	if _, err := NewGrouped("badinput", []GroupMember{
		{W: cl},
		{W: cm, Internal: map[string]InternalRef{"nosuch": {Member: 0, Port: "crest_reference"}}},
	}); err == nil {
		t.Error("internal ref on nonexistent input accepted")
	}
}

func TestConstantRuntime(t *testing.T) {
	m := ConstantRuntime(42 * time.Second)
	if m(Request{}) != 42*time.Second || m(Request{Index: []int{9}}) != 42*time.Second {
		t.Fatal("ConstantRuntime not constant")
	}
}
