package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/iterstrat"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// quietGrid is a deterministic grid with fixed overheads.
func quietGrid(eng *sim.Engine, nodes int) *grid.Grid {
	cfg := grid.IdealConfig(nodes)
	cfg.Overheads = grid.OverheadConfig{
		SubmitMean:   2 * time.Second,
		BrokerMean:   3 * time.Second,
		DispatchMean: 5 * time.Second,
	}
	return grid.New(eng, cfg)
}

// wrapperFor builds a single-input single-output wrapper named name.
func wrapperFor(t *testing.T, g *grid.Grid, name string, runtime time.Duration) *services.Wrapper {
	t.Helper()
	xml := fmt.Sprintf(`<description><executable name=%q>
<access type="URL"><path value="http://colors.unice.fr"/></access>
<input name="in" option="-i"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable></description>`, name)
	d, err := descriptor.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	w, err := services.NewWrapper(g, d, services.ConstantRuntime(runtime), map[string]float64{"out": 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// wrapperChain builds src → A → B → C → sink with wrapper-backed
// processors whose port names follow their descriptors.
func wrapperChain(t *testing.T, eng *sim.Engine, g *grid.Grid) *workflow.Workflow {
	t.Helper()
	w := workflow.New("wchain")
	w.AddSource("src")
	for _, name := range []string{"A", "B", "C"} {
		w.AddService(name, wrapperFor(t, g, name, 30*time.Second), []string{"in"}, []string{"out"})
	}
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "C", "in")
	w.Connect("C", "out", "sink", workflow.SinkPort)
	return w
}

func TestAutoGroupChainCollapses(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := wrapperChain(t, eng, g)
	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range grouped.Processors() {
		if p.Kind == workflow.KindService {
			names = append(names, p.Name)
		}
	}
	if len(names) != 1 || names[0] != "A+B+C" {
		t.Fatalf("grouped processors = %v, want single A+B+C", names)
	}
	gp, _ := grouped.Proc("A+B+C")
	if len(gp.InPorts) != 1 || gp.InPorts[0] != "A.in" {
		t.Fatalf("group in-ports = %v, want [A.in]", gp.InPorts)
	}
	if len(gp.OutPorts) != 1 || gp.OutPorts[0] != "out" {
		t.Fatalf("group out-ports = %v", gp.OutPorts)
	}
	if err := grouped.Validate(); err != nil {
		t.Fatalf("grouped workflow invalid: %v", err)
	}
	// The original workflow is untouched.
	if len(w.Processors()) != 5 {
		t.Fatal("AutoGroup mutated the input workflow")
	}
}

func TestGroupingReducesJobsAndOverhead(t *testing.T) {
	run := func(jg bool) (*Result, int) {
		eng := sim.NewEngine()
		g := quietGrid(eng, 16)
		for i := 0; i < 3; i++ {
			g.Catalog().Register(fmt.Sprintf("gfn://in%d", i), 7.8)
		}
		w := wrapperChain(t, eng, g)
		e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true, JobGrouping: jg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"src": {"gfn://in0", "gfn://in1", "gfn://in2"}})
		if err != nil {
			t.Fatal(err)
		}
		return res, len(g.Records())
	}
	plain, plainJobs := run(false)
	grouped, groupedJobs := run(true)
	if plainJobs != 9 || groupedJobs != 3 {
		t.Fatalf("jobs: plain=%d grouped=%d, want 9 and 3", plainJobs, groupedJobs)
	}
	if grouped.Makespan >= plain.Makespan {
		t.Fatalf("grouping did not speed up: %v vs %v", grouped.Makespan, plain.Makespan)
	}
}

func TestAutoGroupRespectsFanOut(t *testing.T) {
	// A feeds both B and C: A cannot be fused with either.
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := workflow.New("fan")
	w.AddSource("src")
	w.AddService("A", wrapperFor(t, g, "A", time.Second), []string{"in"}, []string{"out"})
	w.AddService("B", wrapperFor(t, g, "B", time.Second), []string{"in"}, []string{"out"})
	w.AddService("C", wrapperFor(t, g, "C", time.Second), []string{"in"}, []string{"out"})
	w.AddSink("sb")
	w.AddSink("sc")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("A", "out", "C", "in")
	w.Connect("B", "out", "sb", workflow.SinkPort)
	w.Connect("C", "out", "sc", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped.Processors()) != len(w.Processors()) {
		t.Fatal("fan-out chain was grouped; A's outputs are needed by two processors")
	}
}

func TestAutoGroupRespectsSinkConsumer(t *testing.T) {
	// A's output goes to B and to a sink: not groupable (the intermediate
	// must be published).
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := workflow.New("tap")
	w.AddSource("src")
	w.AddService("A", wrapperFor(t, g, "A", time.Second), []string{"in"}, []string{"out"})
	w.AddService("B", wrapperFor(t, g, "B", time.Second), []string{"in"}, []string{"out"})
	w.AddSink("tap")
	w.AddSink("end")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("A", "out", "tap", workflow.SinkPort)
	w.Connect("B", "out", "end", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grouped.Proc("A+B"); ok {
		t.Fatal("A was grouped although a sink also consumes its output")
	}
}

func TestAutoGroupRespectsSync(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := workflow.New("sync")
	w.AddSource("src")
	w.AddService("A", wrapperFor(t, g, "A", time.Second), []string{"in"}, []string{"out"})
	s := w.AddService("S", wrapperFor(t, g, "S", time.Second), []string{"in"}, []string{"out"})
	s.Synchronization = true
	w.AddSink("end")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "S", "in")
	w.Connect("S", "out", "end", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grouped.Proc("A+S"); ok {
		t.Fatal("synchronization processor was grouped")
	}
}

func TestAutoGroupRespectsCrossStrategy(t *testing.T) {
	// B crosses A's output with another stream: invocation counts differ,
	// so A+B must not be fused.
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := workflow.New("crossed")
	w.AddSource("s1")
	w.AddSource("s2")
	w.AddService("A", wrapperFor(t, g, "A", time.Second), []string{"in"}, []string{"out"})
	bXML := `<description><executable name="B">
<access type="URL"><path value="http://x"/></access>
<input name="left" option="-l"><access type="GFN"/></input>
<input name="right" option="-r"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable></description>`
	bd, err := descriptor.Parse([]byte(bXML))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := services.NewWrapper(g, bd, services.ConstantRuntime(time.Second), map[string]float64{"out": 1})
	if err != nil {
		t.Fatal(err)
	}
	b := w.AddService("B", bw, []string{"left", "right"}, []string{"out"})
	b.Strategy = iterstrat.Cross(iterstrat.Port("left"), iterstrat.Port("right"))
	w.AddSink("end")
	w.Connect("s1", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "left")
	w.Connect("s2", workflow.SourcePort, "B", "right")
	w.Connect("B", "out", "end", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grouped.Proc("A+B"); ok {
		t.Fatal("cross-strategy consumer was grouped")
	}
}

func TestAutoGroupLeavesLocalServices(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("local")
	w.AddSource("src")
	echo := func(req services.Request) map[string]string {
		return map[string]string{"out": req.Inputs["in"]}
	}
	w.AddService("A", services.NewLocal(eng, "A", 4, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddService("B", services.NewLocal(eng, "B", 4, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddSink("end")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "end", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped.Processors()) != len(w.Processors()) {
		t.Fatal("local (non-wrapper) services were grouped; no descriptors are available for them")
	}
}

// The central correctness property of the optimizations: the produced data
// set is identical under every combination of DP, SP, and JG — only the
// timing changes (Sec. 5.5: "the workflow manager never leads to
// performance drops", and results must remain the results).
func TestOutputsInvariantAcrossConfigurations(t *testing.T) {
	run := func(opts Options) map[string][]string {
		eng := sim.NewEngine()
		g := quietGrid(eng, 16)
		for i := 0; i < 4; i++ {
			g.Catalog().Register(fmt.Sprintf("gfn://in%d", i), 7.8)
		}
		w := wrapperChain(t, eng, g)
		e, err := New(eng, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"src": {"gfn://in0", "gfn://in1", "gfn://in2", "gfn://in3"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	var reference map[string][]string
	for _, opts := range allOptionCombos() {
		got := run(opts)
		// Grouped runs mint GFNs under the group name; compare the item
		// *identity* (index structure and count) plus value suffixes.
		if reference == nil {
			reference = got
			continue
		}
		if len(got["sink"]) != len(reference["sink"]) {
			t.Fatalf("%s: %d sink items, want %d", opts, len(got["sink"]), len(reference["sink"]))
		}
		for i, v := range got["sink"] {
			ref := reference["sink"][i]
			if suffixAfterSlash(v) != suffixAfterSlash(ref) {
				t.Fatalf("%s: sink[%d] = %q, reference %q", opts, i, v, ref)
			}
		}
	}
}

// suffixAfterSlash strips the producer prefix of a minted GFN, keeping the
// output name, index key, and per-key sequence number.
func suffixAfterSlash(v string) string {
	i := strings.LastIndex(v, "/")
	return v[i+1:]
}

func allOptionCombos() []Options {
	var out []Options
	for _, dp := range []bool{false, true} {
		for _, sp := range []bool{false, true} {
			for _, jg := range []bool{false, true} {
				out = append(out, Options{DataParallelism: dp, ServiceParallelism: sp, JobGrouping: jg})
			}
		}
	}
	return out
}

func TestGroupedRunDeterministic(t *testing.T) {
	run := func() time.Duration {
		eng := sim.NewEngine()
		g := quietGrid(eng, 16)
		for i := 0; i < 3; i++ {
			g.Catalog().Register(fmt.Sprintf("gfn://in%d", i), 7.8)
		}
		w := wrapperChain(t, eng, g)
		e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true, JobGrouping: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"src": {"gfn://in0", "gfn://in1", "gfn://in2"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("grouped runs not deterministic: %v vs %v", a, b)
	}
}

func TestAutoGroupPreservesConstants(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := workflow.New("const")
	w.AddSource("src")
	// A has a parameter input bound as a constant.
	xml := `<description><executable name="A">
<access type="URL"><path value="http://x"/></access>
<input name="in" option="-i"><access type="GFN"/></input>
<input name="scale" option="-s"/>
<output name="out" option="-o"><access type="GFN"/></output>
</executable></description>`
	d, err := descriptor.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	var scales []string
	aw, err := services.NewWrapper(g, d, func(req services.Request) time.Duration {
		scales = append(scales, req.Inputs["scale"])
		return time.Second
	}, map[string]float64{"out": 1})
	if err != nil {
		t.Fatal(err)
	}
	a := w.AddService("A", aw, []string{"in"}, []string{"out"})
	a.Constants = map[string]string{"scale": "1.5"}
	w.AddService("B", wrapperFor(t, g, "B", time.Second), []string{"in"}, []string{"out"})
	w.AddSink("end")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "end", workflow.SinkPort)

	grouped, err := AutoGroup(w)
	if err != nil {
		t.Fatal(err)
	}
	gp, ok := grouped.Proc("A+B")
	if !ok {
		t.Fatal("chain with constants not grouped")
	}
	want := map[string]string{"A.scale": "1.5"}
	if !reflect.DeepEqual(gp.Constants, want) {
		t.Fatalf("group constants = %v, want %v", gp.Constants, want)
	}
	// And the grouped run works end to end with the constant reaching
	// the code.
	g.Catalog().Register("gfn://x", 1)
	e, err := New(eng, grouped, Options{ServiceParallelism: true, DataParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"gfn://x"}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.Trace.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if len(scales) != 1 || scales[0] != "1.5" {
		t.Fatalf("the grouped code saw scale %q, want [1.5]", scales)
	}
}
