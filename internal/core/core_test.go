package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/iterstrat"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

const bigCap = 1 << 20

// localChain builds a linear src → P0 → … → P(n-1) → sink workflow of
// Local services whose runtime for item j at stage i is T[i][j].
func localChain(eng *sim.Engine, T [][]time.Duration) *workflow.Workflow {
	w := workflow.New("chain")
	w.AddSource("src")
	n := len(T)
	for i := 0; i < n; i++ {
		i := i
		name := fmt.Sprintf("P%d", i)
		model := func(req services.Request) time.Duration {
			return T[i][req.Index[0]]
		}
		echo := func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"]}
		}
		w.AddService(name, services.NewLocal(eng, name, bigCap, model, echo),
			[]string{"in"}, []string{"out"})
	}
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "P0", "in")
	for i := 1; i < n; i++ {
		w.Connect(fmt.Sprintf("P%d", i-1), "out", fmt.Sprintf("P%d", i), "in")
	}
	w.Connect(fmt.Sprintf("P%d", n-1), "out", "sink", workflow.SinkPort)
	return w
}

func constT(nW, nD int, t time.Duration) [][]time.Duration {
	T := make([][]time.Duration, nW)
	for i := range T {
		T[i] = make([]time.Duration, nD)
		for j := range T[i] {
			T[i][j] = t
		}
	}
	return T
}

func itemValues(n int) []string {
	v := make([]string, n)
	for i := range v {
		v[i] = fmt.Sprintf("D%d", i)
	}
	return v
}

func runChain(t *testing.T, T [][]time.Duration, opts Options) *Result {
	t.Helper()
	eng := sim.NewEngine()
	wf := localChain(eng, T)
	e, err := New(eng, wf, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": itemValues(len(T[0]))})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The four execution-time equations of Sec. 3.5.3, on a constant-time
// workload (last paragraph of Sec. 3.5.4): Σ = nD·nW·T, ΣDP = ΣDSP = nW·T,
// ΣSP = (nD+nW−1)·T.
func TestEquationsConstantTimes(t *testing.T) {
	const (
		nW = 4
		nD = 5
		T  = 10 * time.Second
	)
	cases := []struct {
		opts Options
		want time.Duration
	}{
		{Options{}, nD * nW * T},
		{Options{DataParallelism: true}, nW * T},
		{Options{ServiceParallelism: true}, (nD + nW - 1) * T},
		{Options{DataParallelism: true, ServiceParallelism: true}, nW * T},
	}
	for _, c := range cases {
		res := runChain(t, constT(nW, nD, T), c.opts)
		if res.Makespan != c.want {
			t.Errorf("%s: makespan = %v, want %v", c.opts, res.Makespan, c.want)
		}
	}
}

// Massively data-parallel workflow (nW = 1): ΣDP = ΣDSP = max T0j,
// Σ = ΣSP = Σj T0j.
func TestEquationsMassivelyDataParallel(t *testing.T) {
	T := [][]time.Duration{{3 * time.Second, 7 * time.Second, 5 * time.Second}}
	var sum time.Duration
	for _, d := range T[0] {
		sum += d
	}
	cases := []struct {
		opts Options
		want time.Duration
	}{
		{Options{}, sum},
		{Options{ServiceParallelism: true}, sum},
		{Options{DataParallelism: true}, 7 * time.Second},
		{Options{DataParallelism: true, ServiceParallelism: true}, 7 * time.Second},
	}
	for _, c := range cases {
		res := runChain(t, T, c.opts)
		if res.Makespan != c.want {
			t.Errorf("%s: makespan = %v, want %v", c.opts, res.Makespan, c.want)
		}
	}
}

// Non data-intensive workflow (nD = 1): all configurations take Σi Ti0;
// no optimization introduces overhead.
func TestEquationsNonDataIntensive(t *testing.T) {
	T := [][]time.Duration{{4 * time.Second}, {6 * time.Second}, {2 * time.Second}}
	for _, opts := range []Options{
		{},
		{DataParallelism: true},
		{ServiceParallelism: true},
		{DataParallelism: true, ServiceParallelism: true},
	} {
		res := runChain(t, T, opts)
		if res.Makespan != 12*time.Second {
			t.Errorf("%s: makespan = %v, want 12s", opts, res.Makespan)
		}
	}
}

// Figure 6's scenario: variable execution times make service parallelism
// profitable even on top of data parallelism (SDSP > 1), contradicting the
// constant-time prediction of SSDP = 1.
func TestFigure6VariableTimes(t *testing.T) {
	T := constT(3, 3, 10*time.Second)
	T[0][0] = 20 * time.Second // D0 takes twice as long on P1 (resubmission)
	T[1][1] = 30 * time.Second // D1 blocked in a queue at P2

	dp := runChain(t, T, Options{DataParallelism: true})
	dsp := runChain(t, T, Options{DataParallelism: true, ServiceParallelism: true})
	if dsp.Makespan >= dp.Makespan {
		t.Fatalf("SP gave no gain under variable times: DP=%v DSP=%v", dp.Makespan, dsp.Makespan)
	}
	// DP only (stage barriers): 20 + 30 + 10 = 60s.
	if dp.Makespan != 60*time.Second {
		t.Errorf("ΣDP = %v, want 60s", dp.Makespan)
	}
	// DP+SP: critical chain D1: 10 + 30 + 10 = 50s.
	if dsp.Makespan != 50*time.Second {
		t.Errorf("ΣDSP = %v, want 50s", dsp.Makespan)
	}
}

func TestOutputsCollectedInOrder(t *testing.T) {
	res := runChain(t, constT(2, 3, time.Second), Options{DataParallelism: true, ServiceParallelism: true})
	got := res.Outputs["sink"]
	if len(got) != 3 {
		t.Fatalf("sink items = %v", got)
	}
	// Local echo services pass values through; order is by index key.
	want := []string{"D0", "D1", "D2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink outputs = %v, want %v", got, want)
		}
	}
}

func TestProvenanceDepth(t *testing.T) {
	res := runChain(t, constT(3, 2, time.Second), Options{DataParallelism: true, ServiceParallelism: true})
	items := res.Items["sink"]
	if len(items) != 2 {
		t.Fatal("missing sink items")
	}
	// src → P0 → P1 → P2: history depth 4.
	if d := items[0].Depth(); d != 4 {
		t.Fatalf("history depth = %d, want 4", d)
	}
	if !strings.Contains(items[0].Render(), "P2:out[0]( P1:out[0]( P0:out[0]( src[0] ) ) )") {
		t.Fatalf("history = %s", items[0].Render())
	}
}

// The causality problem (Sec. 4.1): with DP+SP, items overtake each other;
// a downstream dot product must still pair results originating from the
// same input.
func TestDotAlignmentUnderReordering(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("causality")
	w.AddSource("src")
	// A is slow for item 0 and fast for item 2; B is uniform: completions
	// cross each other.
	aModel := func(req services.Request) time.Duration {
		return time.Duration(30-10*req.Index[0]) * time.Second
	}
	a := services.NewLocal(eng, "A", bigCap, aModel, func(req services.Request) map[string]string {
		return map[string]string{"out": "a" + req.Inputs["in"]}
	})
	b := services.NewLocal(eng, "B", bigCap, services.ConstantRuntime(time.Second), func(req services.Request) map[string]string {
		return map[string]string{"out": "b" + req.Inputs["in"]}
	})
	pair := services.NewLocal(eng, "pair", bigCap, services.ConstantRuntime(time.Second), func(req services.Request) map[string]string {
		return map[string]string{"out": req.Inputs["x"] + "|" + req.Inputs["y"]}
	})
	w.AddService("A", a, []string{"in"}, []string{"out"})
	w.AddService("B", b, []string{"in"}, []string{"out"})
	pp := w.AddService("pair", pair, []string{"x", "y"}, []string{"out"})
	pp.Strategy = iterstrat.Dot(iterstrat.Port("x"), iterstrat.Port("y"))
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "A", "in")
	w.Connect("src", workflow.SourcePort, "B", "in")
	w.Connect("A", "out", "pair", "x")
	w.Connect("B", "out", "pair", "y")
	w.Connect("pair", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"D0", "D1", "D2"}})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs["sink"]
	want := []string{"aD0|bD0", "aD1|bD1", "aD2|bD2"}
	if len(got) != 3 {
		t.Fatalf("outputs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("causality violated: outputs = %v, want %v", got, want)
		}
	}
}

func TestSynchronizationBarrier(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("sync")
	w.AddSource("src")
	w.AddService("sq", services.NewLocal(eng, "sq", bigCap, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			return map[string]string{"out": req.Inputs["in"] + "!"}
		}), []string{"in"}, []string{"out"})
	var gotList []string
	mean := w.AddService("mean", services.NewLocal(eng, "mean", bigCap, services.ConstantRuntime(2*time.Second),
		func(req services.Request) map[string]string {
			gotList = append([]string(nil), req.Lists["vals"]...)
			return map[string]string{"out": fmt.Sprintf("mean-of-%d", len(req.Lists["vals"]))}
		}), []string{"vals"}, []string{"out"})
	mean.Synchronization = true
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "sq", "in")
	w.Connect("sq", "out", "mean", "vals")
	w.Connect("mean", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"a", "b", "c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotList) != 4 {
		t.Fatalf("sync received %d values, want the whole input set (4)", len(gotList))
	}
	if got := res.Outputs["sink"]; len(got) != 1 || got[0] != "mean-of-4" {
		t.Fatalf("sink = %v", got)
	}
	// All items processed in parallel (1s), then the barrier (2s): 3s.
	if res.Makespan != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s (sync must wait for all, then run once)", res.Makespan)
	}
	invs := res.Trace.ByProcessor("mean")
	if len(invs) != 1 || !invs[0].Sync {
		t.Fatalf("mean invocations = %+v, want exactly 1 sync invocation", invs)
	}
}

func TestNestedSynchronization(t *testing.T) {
	// Two sync processors in sequence: the second fires only after the
	// first completed.
	eng := sim.NewEngine()
	w := workflow.New("sync2")
	w.AddSource("src")
	mk := func(name string) *workflow.Processor {
		p := w.AddService(name, services.NewLocal(eng, name, bigCap, services.ConstantRuntime(time.Second),
			func(req services.Request) map[string]string {
				return map[string]string{"out": name}
			}), []string{"vals"}, []string{"out"})
		p.Synchronization = true
		return p
	}
	mk("s1")
	mk("s2")
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "s1", "vals")
	w.Connect("s1", "out", "s2", "vals")
	w.Connect("s2", "out", "sink", workflow.SinkPort)

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s (two chained barriers)", res.Makespan)
	}
	s1 := res.Trace.ByProcessor("s1")[0]
	s2 := res.Trace.ByProcessor("s2")[0]
	if s2.Started < s1.Finished {
		t.Fatal("outer sync fired before inner sync finished")
	}
}

// Figure 2: an optimization loop with a conditional output port, legal
// only in service-based workflows. P3 loops until its criterion converges.
func loopWorkflow(eng *sim.Engine, iterations int) *workflow.Workflow {
	w := workflow.New("fig2")
	w.AddSource("Source")
	p1 := services.NewLocal(eng, "P1", bigCap, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			return map[string]string{"init": req.Inputs["in"] + ":0"}
		})
	p2 := services.NewLocal(eng, "P2", bigCap, services.ConstantRuntime(time.Second), nil)
	p3 := services.NewLocal(eng, "P3", bigCap, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			v := req.Inputs["in"]
			var base string
			var n int
			fmt.Sscanf(v[strings.LastIndex(v, ":")+1:], "%d", &n)
			base = v[:strings.LastIndex(v, ":")]
			if n+1 >= iterations {
				return map[string]string{"done": fmt.Sprintf("%s:converged-after-%d", base, n+1)}
			}
			return map[string]string{"again": fmt.Sprintf("%s:%d", base, n+1)}
		})
	w.AddService("P1", p1, []string{"in"}, []string{"init"})
	w.AddService("P2", p2, []string{"crit"}, []string{"crit"})
	w.AddService("P3", p3, []string{"in"}, []string{"again", "done"})
	w.AddSink("Sink")
	w.Connect("Source", workflow.SourcePort, "P1", "in")
	w.Connect("P1", "init", "P2", "crit")
	w.Connect("P2", "crit", "P3", "in")
	w.Connect("P3", "again", "P2", "crit")
	w.Connect("P3", "done", "Sink", workflow.SinkPort)
	return w
}

func TestOptimizationLoop(t *testing.T) {
	eng := sim.NewEngine()
	w := loopWorkflow(eng, 3)
	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"Source": {"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs["Sink"]
	if len(got) != 2 {
		t.Fatalf("sink = %v, want 2 converged results", got)
	}
	for _, v := range got {
		if !strings.Contains(v, "converged-after-3") {
			t.Fatalf("loop iterated wrong number of times: %v", got)
		}
	}
	// P2 and P3 each ran 3 times per item.
	if n := len(res.Trace.ByProcessor("P3")); n != 6 {
		t.Fatalf("P3 invocations = %d, want 6", n)
	}
}

func TestLoopRequiresServiceParallelism(t *testing.T) {
	eng := sim.NewEngine()
	w := loopWorkflow(eng, 2)
	if _, err := New(eng, w, Options{DataParallelism: true}); err == nil {
		t.Fatal("cyclic workflow accepted without service parallelism")
	}
}

func TestCoordinationConstraint(t *testing.T) {
	// Two independent branches; a constraint forces bStart after aEnd even
	// with full parallelism available.
	eng := sim.NewEngine()
	w := workflow.New("constraint")
	w.AddSource("src")
	echo := func(req services.Request) map[string]string {
		return map[string]string{"out": req.Inputs["in"]}
	}
	w.AddService("a", services.NewLocal(eng, "a", bigCap, services.ConstantRuntime(10*time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddService("b", services.NewLocal(eng, "b", bigCap, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddSink("sa")
	w.AddSink("sb")
	w.Connect("src", workflow.SourcePort, "a", "in")
	w.Connect("src", workflow.SourcePort, "b", "in")
	w.Connect("a", "out", "sa", workflow.SinkPort)
	w.Connect("b", "out", "sb", workflow.SinkPort)
	w.Constrain("a", "b")

	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"d0", "d1"}})
	if err != nil {
		t.Fatal(err)
	}
	aEnd := sim.Time(0)
	for _, inv := range res.Trace.ByProcessor("a") {
		if inv.Finished > aEnd {
			aEnd = inv.Finished
		}
	}
	for _, inv := range res.Trace.ByProcessor("b") {
		if inv.Started < aEnd {
			t.Fatalf("constraint violated: b started at %v before a finished at %v", inv.Started, aEnd)
		}
	}
}

func TestMaxConcurrentCap(t *testing.T) {
	T := constT(1, 4, 10*time.Second)
	res := runChain(t, T, Options{DataParallelism: true, ServiceParallelism: true, MaxConcurrent: 2})
	// 4 items, 2 at a time, 10s each: 20s.
	if res.Makespan != 20*time.Second {
		t.Fatalf("makespan = %v, want 20s with MaxConcurrent=2", res.Makespan)
	}
}

func TestMissingSourceInput(t *testing.T) {
	eng := sim.NewEngine()
	wf := localChain(eng, constT(1, 1, time.Second))
	e, err := New(eng, wf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(map[string][]string{}); err == nil {
		t.Fatal("missing source input accepted")
	}
}

func TestServiceErrorPropagates(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("fail")
	w.AddSource("src")
	fail := services.NewLocal(eng, "fail", bigCap, services.ConstantRuntime(time.Second), nil)
	w.AddService("ok", fail, []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "ok", "in")
	w.Connect("ok", "out", "sink", workflow.SinkPort)
	// Swap in a service that errors.
	p, _ := w.Proc("ok")
	p.Service = failingService{}
	e, err := New(eng, w, Options{ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(map[string][]string{"src": {"x"}}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("service error not propagated: %v", err)
	}
}

type failingService struct{}

func (failingService) Name() string { return "failing" }
func (failingService) Invoke(req services.Request, done func(services.Response)) {
	done(services.Response{Err: errors.New("boom")})
}

func TestStallDetection(t *testing.T) {
	// A coordination constraint whose prerequisite can never drain (a
	// conditional output starves it of the statically expected items)
	// leaves tuples gated forever — a stall, reported as such.
	eng := sim.NewEngine()
	w := workflow.New("stall")
	w.AddSource("src")
	half := services.NewLocal(eng, "half", bigCap, services.ConstantRuntime(time.Second),
		func(req services.Request) map[string]string {
			if req.Index[0] == 0 {
				return map[string]string{} // drops item 0
			}
			return map[string]string{"out": req.Inputs["in"]}
		})
	echo := func(req services.Request) map[string]string {
		return map[string]string{"out": req.Inputs["in"]}
	}
	w.AddService("half", half, []string{"in"}, []string{"out"})
	w.AddService("starved", services.NewLocal(eng, "starved", bigCap, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddService("gated", services.NewLocal(eng, "gated", bigCap, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddSink("s1")
	w.AddSink("s2")
	w.Connect("src", workflow.SourcePort, "half", "in")
	w.Connect("half", "out", "starved", "in")
	w.Connect("starved", "out", "s1", workflow.SinkPort)
	w.Connect("src", workflow.SourcePort, "gated", "in")
	w.Connect("gated", "out", "s2", workflow.SinkPort)
	w.Constrain("starved", "gated") // starved never drains: expects 2, gets 1

	e, err := New(eng, w, Options{ServiceParallelism: true, DataParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(map[string][]string{"src": {"a", "b"}})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestTraceTimingsConsistent(t *testing.T) {
	res := runChain(t, constT(3, 4, time.Second), Options{ServiceParallelism: true})
	if len(res.Trace.Invocations) != 12 {
		t.Fatalf("trace has %d invocations, want 12", len(res.Trace.Invocations))
	}
	for _, inv := range res.Trace.Invocations {
		if inv.Ready > inv.Started || inv.Started > inv.Finished {
			t.Fatalf("trace timing inconsistent: %+v", inv)
		}
		if inv.Err != nil {
			t.Fatalf("unexpected invocation error: %v", inv.Err)
		}
	}
	procs := res.Trace.Processors()
	if len(procs) != 3 {
		t.Fatalf("trace processors = %v", procs)
	}
}

func TestOptionsString(t *testing.T) {
	cases := map[string]Options{
		"NOP":      {},
		"DP":       {DataParallelism: true},
		"SP":       {ServiceParallelism: true},
		"JG":       {JobGrouping: true},
		"SP+DP":    {DataParallelism: true, ServiceParallelism: true},
		"SP+DP+JG": {DataParallelism: true, ServiceParallelism: true, JobGrouping: true},
	}
	for want, opts := range cases {
		if got := opts.String(); got != want {
			t.Errorf("Options%+v.String() = %q, want %q", opts, got, want)
		}
	}
}

func TestSummaryRenders(t *testing.T) {
	res := runChain(t, constT(2, 2, time.Second), Options{DataParallelism: true})
	s := res.Summary()
	for _, frag := range []string{"DP", "P0", "P1", "sink", "invocations"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestRerunSameWorkflowDefinition(t *testing.T) {
	// Strategies are cloned per enactor: running the same workflow twice
	// must not leak matcher state.
	for run := 0; run < 2; run++ {
		res := runChain(t, constT(2, 3, time.Second), Options{DataParallelism: true, ServiceParallelism: true})
		if len(res.Outputs["sink"]) != 3 {
			t.Fatalf("run %d: outputs = %v", run, res.Outputs["sink"])
		}
	}
}

// TestNewAllocBudget guards the enactor's set-up cost: New resolves the
// workflow graph straight into per-processor state, with no intermediate
// index, so building an enactor for a source → 3 services → sink chain
// stays within a fixed allocation budget: 75 objects measured, plus
// about 10 %.
func TestNewAllocBudget(t *testing.T) {
	eng := sim.NewEngine()
	w := localChain(eng, constT(3, 1, time.Second))
	opts := Options{DataParallelism: true, ServiceParallelism: true}
	n := testing.AllocsPerRun(100, func() {
		if _, err := New(eng, w, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 82
	if n > budget {
		t.Fatalf("core.New allocates %.0f objects for a 3-stage chain (budget %d)", n, budget)
	}
	t.Logf("core.New: %.0f allocs (budget %d)", n, budget)
}
