package services

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/grid"
)

// specSink is a Submitter that keeps every submitted spec and never
// completes a job: tests read the specs the wrapper built.
type specSink struct{ specs []grid.JobSpec }

func (s *specSink) Submit(spec grid.JobSpec, _ func(*grid.JobRecord)) *grid.JobRecord {
	s.specs = append(s.specs, spec)
	return nil
}

func (s *specSink) Catalog() *grid.Catalog { return nil }

// dropSink is a Submitter that discards every spec, so measuring an
// invocation counts only the wrapper's own allocations.
type dropSink struct{}

func (dropSink) Submit(grid.JobSpec, func(*grid.JobRecord)) *grid.JobRecord { return nil }
func (dropSink) Catalog() *grid.Catalog                                     { return nil }

// Three outputs declared out of name order, so neither map iteration nor
// sorting can pass for descriptor order.
const triXML = `<description>
<executable name="tri">
<input name="in" option="-i"><access type="GFN"/></input>
<output name="zeta" option="-z"><access type="GFN"/></output>
<output name="alpha" option="-a"><access type="GFN"/></output>
<output name="mid" option="-m"><access type="GFN"/></output>
</executable>
</description>`

func triWrapper(t *testing.T, sub Submitter) *Wrapper {
	t.Helper()
	d, err := descriptor.Parse([]byte(triXML))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWrapper(sub, d, ConstantRuntime(0), map[string]float64{"zeta": 1, "alpha": 2, "mid": 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkOutputOrder asserts that decls lists the tri wrapper's outputs in
// descriptor order, once per invocation the spec covers.
func checkOutputOrder(t *testing.T, how string, decls []grid.FileDecl, invocations int) {
	t.Helper()
	want := []struct {
		prefix string
		mb     float64
	}{{"gfn://tri/zeta.", 1}, {"gfn://tri/alpha.", 2}, {"gfn://tri/mid.", 3}}
	if len(decls) != invocations*len(want) {
		t.Fatalf("%s: %d output decls, want %d", how, len(decls), invocations*len(want))
	}
	for i, d := range decls {
		w := want[i%len(want)]
		if !strings.HasPrefix(d.Name, w.prefix) || d.SizeMB != w.mb {
			t.Fatalf("%s: output %d is %+v, want %s* of %v MB (descriptor order)", how, i, d, w.prefix, w.mb)
		}
	}
}

// The job registers its outputs in Spec.Outputs order, and registration
// order decides eviction victims and repair order downstream, so it must
// be the descriptor's on every invocation, never map iteration order.
func TestWrapperOutputsInDescriptorOrder(t *testing.T) {
	sink := &specSink{}
	w := triWrapper(t, sink)
	in := map[string]string{"in": "gfn://x"}
	for i := 0; i < 200; i++ {
		w.Invoke(Request{Index: []int{i}, Inputs: in}, func(Response) {})
	}
	for i := 0; i < 100; i++ {
		w.InvokeBatch([]Request{{Index: []int{2 * i}, Inputs: in}, {Index: []int{2*i + 1}, Inputs: in}},
			func([]Response) {})
	}
	if len(sink.specs) != 300 {
		t.Fatalf("%d jobs submitted, want 300", len(sink.specs))
	}
	for i, spec := range sink.specs[:200] {
		checkOutputOrder(t, "Invoke "+spec.Name, spec.Outputs, 1)
		if want := "tri[" + strconv.Itoa(i) + "]"; spec.Name != want {
			t.Fatalf("job name %q, want %q", spec.Name, want)
		}
	}
	for i, spec := range sink.specs[200:] {
		checkOutputOrder(t, "InvokeBatch "+spec.Name, spec.Outputs, 2)
		if want := "tri[batch:2:" + strconv.Itoa(2*i) + "]"; spec.Name != want {
			t.Fatalf("batch job name %q, want %q", spec.Name, want)
		}
	}
}

// stageWrapper wraps a one-input, one-output stage: the shape of every
// synthetic campaign stage.
func stageWrapper(t testing.TB) *Wrapper {
	t.Helper()
	d := &descriptor.Description{Executable: descriptor.Executable{
		Name:    "tenant0042.stage00",
		Inputs:  []descriptor.Input{{Name: "in", Option: "-i", Access: &descriptor.Access{Type: descriptor.GFN}}},
		Outputs: []descriptor.Output{{Name: "out", Option: "-o", Access: &descriptor.Access{Type: descriptor.GFN}}},
	}}
	w, err := NewWrapper(dropSink{}, d, ConstantRuntime(0), map[string]float64{"out": 10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWrapperInvokeAllocs pins the objects one invocation allocates: the
// key, the output GFN, the outputs map (two objects), the output decls,
// the stage-in list, the job name and the completion closure.
func TestWrapperInvokeAllocs(t *testing.T) {
	w := stageWrapper(t)
	req := Request{Index: []int{17}, Inputs: map[string]string{"in": "gfn://tenant0042/input0017"}}
	done := func(Response) {}
	const budget = 9
	if n := testing.AllocsPerRun(1000, func() { w.Invoke(req, done) }); n > budget {
		t.Errorf("Wrapper.Invoke allocates %.1f objects per call, budget %d", n, budget)
	}
}

func BenchmarkWrapperInvoke(b *testing.B) {
	w := stageWrapper(b)
	req := Request{Index: []int{17}, Inputs: map[string]string{"in": "gfn://tenant0042/input0017"}}
	done := func(Response) {}
	b.ReportAllocs()
	for b.Loop() {
		w.Invoke(req, done)
	}
}
