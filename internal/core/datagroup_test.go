package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// singleStage builds src → W → sink with one wrapper-backed processor.
func singleStage(t *testing.T, eng *sim.Engine, g *grid.Grid, runtime time.Duration) *workflow.Workflow {
	t.Helper()
	w := workflow.New("stage")
	w.AddSource("src")
	w.AddService("W", wrapperFor(t, g, "W", runtime), []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "W", "in")
	w.Connect("W", "out", "sink", workflow.SinkPort)
	return w
}

func runDataGroup(t *testing.T, n, groupSize int) (*Result, *grid.Grid) {
	t.Helper()
	eng := sim.NewEngine()
	g := quietGrid(eng, 64)
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("gfn://in%d", i)
		g.Catalog().Register(inputs[i], 1)
	}
	w := singleStage(t, eng, g, 30*time.Second)
	e, err := New(eng, w, Options{
		DataParallelism:    true,
		ServiceParallelism: true,
		DataGroupSize:      groupSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": inputs})
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestDataGroupingReducesJobs(t *testing.T) {
	_, g1 := runDataGroup(t, 8, 1)
	_, g4 := runDataGroup(t, 8, 4)
	if got := len(g1.Records()); got != 8 {
		t.Fatalf("ungrouped jobs = %d, want 8", got)
	}
	if got := len(g4.Records()); got != 2 {
		t.Fatalf("grouped jobs = %d, want 2 (batches of 4)", got)
	}
}

func TestDataGroupingPreservesOutputs(t *testing.T) {
	r1, _ := runDataGroup(t, 9, 1)
	r4, _ := runDataGroup(t, 9, 4)
	a, b := r1.Outputs["sink"], r4.Outputs["sink"]
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("outputs: %d vs %d, want 9 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDataGroupingTradeoff(t *testing.T) {
	// One overhead per batch, but batches serialize their members:
	// makespan(k=1) < makespan(k=8) on an uncontended grid (full
	// parallelism wins when overhead is small), while job count shrinks
	// 8:1. The grid-load-dependent sweet spot is exercised by the
	// BenchmarkAblationDataGrouping sweep.
	r1, _ := runDataGroup(t, 8, 1)
	r8, g8 := runDataGroup(t, 8, 8)
	if len(g8.Records()) != 1 {
		t.Fatalf("k=8 jobs = %d, want 1", len(g8.Records()))
	}
	// 8 invocations of 30s in one job: ≥ 240s compute.
	if r8.Makespan < 240*time.Second {
		t.Fatalf("batched makespan = %v, want ≥ 240s of serialized compute", r8.Makespan)
	}
	if r1.Makespan >= r8.Makespan {
		t.Fatalf("on a quiet grid full parallelism should win: k=1 %v vs k=8 %v",
			r1.Makespan, r8.Makespan)
	}
}

func TestDataGroupingBatchCommandComposed(t *testing.T) {
	res, g := runDataGroup(t, 4, 4)
	recs := g.Records()
	if len(recs) != 1 {
		t.Fatalf("jobs = %d", len(recs))
	}
	// Four invocations in one job: one output declaration each, under the
	// batch's name.
	if got := len(recs[0].Spec.Outputs); got != 4 {
		t.Fatalf("batch declares %d outputs, want 4: %v", got, recs[0].Spec.Outputs)
	}
	if recs[0].Spec.Name != "W[batch:4:0]" {
		t.Fatalf("batch job name = %q", recs[0].Spec.Name)
	}
	if recs[0].Spec.Runtime < 120*time.Second {
		t.Fatalf("batch runtime = %v, want sum of members (≥120s)", recs[0].Spec.Runtime)
	}
	for _, inv := range res.Trace.Invocations {
		if inv.Job != recs[0] {
			t.Fatalf("invocation %s carries job %p, want the batch's %p", inv.Key(), inv.Job, recs[0])
		}
	}
}

// The members of a batch share one job record: the trace lists it once
// and counts its attempts once.
func TestDataGroupingTraceCountsEachJobOnce(t *testing.T) {
	res, g := runDataGroup(t, 8, 4)
	jobs := res.Trace.Jobs()
	if len(jobs) != 2 || jobs[0] == jobs[1] {
		t.Fatalf("Trace.Jobs() = %v, want the 2 distinct batch records", jobs)
	}
	attempts := 0
	for _, j := range g.Records() {
		attempts += j.Attempts
	}
	if sum := jobs[0].Attempts + jobs[1].Attempts; res.Trace.JobCount() != sum || sum != attempts {
		t.Fatalf("JobCount = %d, want the records' %d attempts (grid saw %d)", res.Trace.JobCount(), sum, attempts)
	}
}

func TestDataGroupingRespectsPartialBatches(t *testing.T) {
	// 10 items in batches of 4: 4+4+2 → 3 jobs.
	_, g := runDataGroup(t, 10, 4)
	if got := len(g.Records()); got != 3 {
		t.Fatalf("jobs = %d, want 3 (4+4+2)", got)
	}
}

func TestDataGroupingIgnoredWithoutDP(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 64)
	for i := 0; i < 4; i++ {
		g.Catalog().Register(fmt.Sprintf("gfn://in%d", i), 1)
	}
	w := singleStage(t, eng, g, 10*time.Second)
	e, err := New(eng, w, Options{ServiceParallelism: true, DataGroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(map[string][]string{"src": {"gfn://in0", "gfn://in1", "gfn://in2", "gfn://in3"}}); err != nil {
		t.Fatal(err)
	}
	// Without DP the service is serialized anyway; batching must not kick in.
	if got := len(g.Records()); got != 4 {
		t.Fatalf("jobs = %d, want 4 (no batching without data parallelism)", got)
	}
}

func TestDataGroupingIgnoredForLocalServices(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("local")
	w.AddSource("src")
	echo := func(req services.Request) map[string]string {
		return map[string]string{"out": req.Inputs["in"]}
	}
	w.AddService("L", services.NewLocal(eng, "L", 64, services.ConstantRuntime(time.Second), echo),
		[]string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", workflow.SourcePort, "L", "in")
	w.Connect("L", "out", "sink", workflow.SinkPort)
	e, err := New(eng, w, Options{DataParallelism: true, ServiceParallelism: true, DataGroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["sink"]) != 3 {
		t.Fatalf("outputs = %v", res.Outputs["sink"])
	}
	// All three ran concurrently: batching must not serialize locals.
	if res.Makespan != time.Second {
		t.Fatalf("makespan = %v, want 1s", res.Makespan)
	}
}

func TestInvokeBatchDirectly(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	g.Catalog().Register("gfn://x", 1)
	w := wrapperFor(t, g, "W", 10*time.Second)
	var resps []services.Response
	reqs := []services.Request{
		{Index: []int{0}, Inputs: map[string]string{"in": "gfn://x"}},
		{Index: []int{1}, Inputs: map[string]string{"in": "gfn://x"}},
		{Index: []int{2}, Inputs: map[string]string{"in": "gfn://x"}},
	}
	w.InvokeBatch(reqs, func(rs []services.Response) { resps = rs })
	eng.Run()
	if len(resps) != 3 {
		t.Fatalf("responses = %d", len(resps))
	}
	seen := map[string]bool{}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("response %d: %v", i, r.Err)
		}
		out := r.Outputs["out"]
		if out == "" || seen[out] {
			t.Fatalf("batch outputs not distinct: %v", resps)
		}
		seen[out] = true
		if !g.Catalog().Has(out) {
			t.Fatalf("batch output %q not registered", out)
		}
		if r.Job == nil || r.Job != resps[0].Job {
			t.Fatal("batch responses must share the single job record")
		}
	}
}

func TestInvokeBatchSingleFallsBack(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	g.Catalog().Register("gfn://x", 1)
	w := wrapperFor(t, g, "W", time.Second)
	var got []services.Response
	w.InvokeBatch([]services.Request{{Index: []int{0}, Inputs: map[string]string{"in": "gfn://x"}}},
		func(rs []services.Response) { got = rs })
	eng.Run()
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("single-request batch: %+v", got)
	}
}

func TestInvokeBatchEmptyPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 1)
	w := wrapperFor(t, g, "W", time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("empty batch did not panic")
		}
	}()
	w.InvokeBatch(nil, func([]services.Response) {})
}

func TestInvokeBatchUnboundInput(t *testing.T) {
	eng := sim.NewEngine()
	g := quietGrid(eng, 8)
	w := wrapperFor(t, g, "W", time.Second)
	var got []services.Response
	w.InvokeBatch([]services.Request{
		{Index: []int{0}, Inputs: map[string]string{"in": "gfn://x"}},
		{Index: []int{1}, Inputs: map[string]string{}}, // unbound
	}, func(rs []services.Response) { got = rs })
	eng.Run()
	if len(got) != 2 || got[0].Err == nil || got[1].Err == nil {
		t.Fatalf("unbound input in batch not reported on all members: %+v", got)
	}
}

func TestDataGroupingWindowBatchesStreams(t *testing.T) {
	// Two-stage chain under streaming: stage-2 items arrive one at a time.
	// Without a window, stage 2 cannot batch; with one, it can.
	run := func(window time.Duration) int {
		eng := sim.NewEngine()
		g := quietGrid(eng, 64)
		inputs := make([]string, 8)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("gfn://in%d", i)
			g.Catalog().Register(inputs[i], 1)
		}
		w := workflow.New("two")
		w.AddSource("src")
		w.AddService("W1", wrapperFor(t, g, "W1", 10*time.Second), []string{"in"}, []string{"out"})
		w.AddService("W2", wrapperFor(t, g, "W2", 10*time.Second), []string{"in"}, []string{"out"})
		w.AddSink("sink")
		w.Connect("src", workflow.SourcePort, "W1", "in")
		w.Connect("W1", "out", "W2", "in")
		w.Connect("W2", "out", "sink", workflow.SinkPort)
		e, err := New(eng, w, Options{
			DataParallelism:    true,
			ServiceParallelism: true,
			DataGroupSize:      4,
			DataGroupWindow:    window,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(map[string][]string{"src": inputs})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outputs["sink"]) != 8 {
			t.Fatalf("outputs = %d", len(res.Outputs["sink"]))
		}
		w2jobs := 0
		for _, rec := range g.Records() {
			if strings.HasPrefix(rec.Spec.Name, "W2") {
				w2jobs++
			}
		}
		return w2jobs
	}
	noWindow := run(0)
	withWindow := run(time.Minute)
	if withWindow >= noWindow {
		t.Fatalf("window did not improve stage-2 batching: %d vs %d jobs", withWindow, noWindow)
	}
	if withWindow > 3 {
		t.Fatalf("stage-2 jobs with window = %d, want ≤ 3 (batches of up to 4)", withWindow)
	}
}

func TestDataGroupingWindowFlushesPartialBatch(t *testing.T) {
	// 3 items, batch size 4, window 30s: the window must flush the
	// under-filled batch rather than stall.
	eng := sim.NewEngine()
	g := quietGrid(eng, 64)
	for i := 0; i < 3; i++ {
		g.Catalog().Register(fmt.Sprintf("gfn://in%d", i), 1)
	}
	w := singleStage(t, eng, g, 10*time.Second)
	e, err := New(eng, w, Options{
		DataParallelism:    true,
		ServiceParallelism: true,
		DataGroupSize:      4,
		DataGroupWindow:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"gfn://in0", "gfn://in1", "gfn://in2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["sink"]) != 3 {
		t.Fatalf("outputs = %v", res.Outputs["sink"])
	}
	if len(g.Records()) != 1 {
		t.Fatalf("jobs = %d, want 1 (flushed partial batch)", len(g.Records()))
	}
	// The batch waited out the window before submission.
	if got := g.Records()[0].Submitted; got != sim.Time(30*time.Second) {
		t.Fatalf("batch submitted at %v, want 30s (after the window)", got)
	}
}
