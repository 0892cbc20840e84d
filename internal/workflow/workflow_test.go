package workflow

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/iterstrat"
	"repro/internal/rng"
	"repro/internal/services"
)

// fake is a trivial Service for graph tests.
type fake struct{ name string }

func (f *fake) Name() string { return f.name }
func (f *fake) Invoke(req services.Request, done func(services.Response)) {
	done(services.Response{Outputs: map[string]string{}})
}

func svc(name string) services.Service { return &fake{name} }

// chain builds the Fig. 1 workflow: src -> P1 -> P2 -> P3 -> sink.
func chain(t *testing.T) *Workflow {
	t.Helper()
	w := New("fig1")
	w.AddSource("src")
	w.AddService("P1", svc("P1"), []string{"in"}, []string{"out"})
	w.AddService("P2", svc("P2"), []string{"in"}, []string{"out"})
	w.AddService("P3", svc("P3"), []string{"in"}, []string{"out"})
	w.AddSink("sink")
	w.Connect("src", SourcePort, "P1", "in")
	w.Connect("P1", "out", "P2", "in")
	w.Connect("P2", "out", "P3", "in")
	w.Connect("P3", "out", "sink", SinkPort)
	if err := w.Validate(); err != nil {
		t.Fatalf("chain workflow invalid: %v", err)
	}
	return w
}

func TestChainStructure(t *testing.T) {
	w := chain(t)
	if len(w.Processors()) != 5 {
		t.Fatalf("processors = %d", len(w.Processors()))
	}
	if len(w.Sources()) != 1 || w.Sources()[0].Name != "src" {
		t.Fatalf("sources = %v", w.Sources())
	}
	if len(w.Sinks()) != 1 || w.Sinks()[0].Name != "sink" {
		t.Fatalf("sinks = %v", w.Sinks())
	}
	if got := w.Successors("P1"); len(got) != 1 || got[0] != "P2" {
		t.Fatalf("Successors(P1) = %v", got)
	}
	if got := w.Predecessors("P2"); len(got) != 1 || got[0] != "P1" {
		t.Fatalf("Predecessors(P2) = %v", got)
	}
	in := w.Incoming("P2")
	if len(in["in"]) != 1 || in["in"][0].FromProc != "P1" {
		t.Fatalf("Incoming(P2) = %v", in)
	}
	if got := w.Outgoing("P1"); len(got) != 1 || got[0].ToProc != "P2" {
		t.Fatalf("Outgoing(P1) = %v", got)
	}
}

func TestHasCycleFalseOnChain(t *testing.T) {
	if chain(t).HasCycle() {
		t.Fatal("chain reported cyclic")
	}
}

func TestLoopWorkflowHasCycle(t *testing.T) {
	// Fig. 2: P3 feeds back into P2's input port.
	w := New("fig2")
	w.AddSource("Source")
	w.AddService("P1", svc("P1"), []string{"in"}, []string{"init"})
	w.AddService("P2", svc("P2"), []string{"crit"}, []string{"out"})
	w.AddService("P3", svc("P3"), []string{"in"}, []string{"again", "done"})
	w.AddSink("Sink")
	w.Connect("Source", SourcePort, "P1", "in")
	w.Connect("P1", "init", "P2", "crit")
	w.Connect("P2", "out", "P3", "in")
	w.Connect("P3", "again", "P2", "crit") // loop back
	w.Connect("P3", "done", "Sink", SinkPort)
	if err := w.Validate(); err != nil {
		t.Fatalf("loop workflow must be valid (service-based workflows allow loops): %v", err)
	}
	if !w.HasCycle() {
		t.Fatal("loop not detected")
	}
	if _, err := w.TopoOrder(); err == nil {
		t.Fatal("TopoOrder succeeded on cyclic graph")
	}
}

func TestTopoOrderChain(t *testing.T) {
	w := chain(t)
	topo, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range topo {
		pos[n] = i
	}
	for _, l := range w.Links {
		if pos[l.FromProc] >= pos[l.ToProc] {
			t.Fatalf("topo order violates link %s: %v", l, topo)
		}
	}
}

func TestCriticalPathChain(t *testing.T) {
	w := chain(t)
	nW, err := w.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if nW != 3 {
		t.Fatalf("nW = %d, want 3 (sources and sinks excluded)", nW)
	}
}

// diamond builds src -> A -> {B, C} -> D -> sink: nW is 3, not 4.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	w.AddSource("src")
	w.AddService("A", svc("A"), []string{"in"}, []string{"out"})
	w.AddService("B", svc("B"), []string{"in"}, []string{"out"})
	w.AddService("C", svc("C"), []string{"in"}, []string{"out"})
	d := w.AddService("D", svc("D"), []string{"b", "c"}, []string{"out"})
	d.Strategy = iterstrat.Dot(iterstrat.Port("b"), iterstrat.Port("c"))
	w.AddSink("sink")
	w.Connect("src", SourcePort, "A", "in")
	w.Connect("A", "out", "B", "in")
	w.Connect("A", "out", "C", "in")
	w.Connect("B", "out", "D", "b")
	w.Connect("C", "out", "D", "c")
	w.Connect("D", "out", "sink", SinkPort)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCriticalPathDiamond(t *testing.T) {
	w := diamond(t)
	nW, err := w.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if nW != 3 {
		t.Fatalf("nW = %d, want 3 (parallel branches share a level)", nW)
	}
}

func TestAncestors(t *testing.T) {
	w := diamond(t)
	anc := w.Ancestors("D")
	for _, n := range []string{"A", "B", "C", "src"} {
		if !anc[n] {
			t.Errorf("Ancestors(D) missing %s", n)
		}
	}
	if anc["D"] || anc["sink"] {
		t.Errorf("Ancestors(D) contains non-ancestors: %v", anc)
	}
}

func TestAncestorsOnCyclicGraph(t *testing.T) {
	w := New("loop")
	w.AddService("A", svc("A"), []string{"in"}, []string{"out"})
	w.AddService("B", svc("B"), []string{"in"}, []string{"out"})
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "A", "in")
	anc := w.Ancestors("A")
	if !anc["B"] {
		t.Fatal("cyclic ancestors incomplete")
	}
	if anc["A"] {
		t.Fatal("node counted as its own ancestor")
	}
}

// TestTopologyAncestorsCyclic pins the ancestor walk on an explicit
// three-node loop (Fig. 2 shape): every node of a cycle is an ancestor of
// every other, and no node is its own ancestor.
func TestTopologyAncestorsCyclic(t *testing.T) {
	w := New("loop")
	for _, n := range []string{"A", "B", "C"} {
		w.AddService(n, svc(n), []string{"in"}, []string{"out"})
	}
	w.Connect("A", "out", "B", "in")
	w.Connect("B", "out", "C", "in")
	w.Connect("C", "out", "A", "in")
	for _, n := range []string{"A", "B", "C"} {
		anc := w.Ancestors(n)
		if len(anc) != 2 || anc[n] {
			t.Fatalf("Ancestors(%s) = %v, want the two other cycle members", n, anc)
		}
	}
}

// randomGraph builds a random workflow graph: a mix of sources, sinks and
// two-in/two-out service processors, random links (cycles allowed), random
// constraints, and occasionally dangling endpoints (which the accessors
// tolerate). Services are left without Service implementations: the graph
// accessors never invoke them.
func randomGraph(r *rng.Source) *Workflow {
	w := New("random")
	n := 2 + r.Intn(12)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			w.AddSource(fmt.Sprintf("P%d", i))
		case 1:
			w.AddSink(fmt.Sprintf("P%d", i))
		default:
			w.Add(&Processor{
				Name:     fmt.Sprintf("P%d", i),
				Kind:     KindService,
				InPorts:  []string{"a", "b"},
				OutPorts: []string{"x", "y"},
			})
		}
	}
	procs := w.Processors()
	pick := func() *Processor { return procs[r.Intn(len(procs))] }
	port := func(ports []string) string {
		if len(ports) == 0 {
			return "none"
		}
		return ports[r.Intn(len(ports))]
	}
	nLinks := r.Intn(3 * n)
	for i := 0; i < nLinks; i++ {
		from, to := pick(), pick()
		w.Connect(from.Name, port(from.OutPorts), to.Name, port(to.InPorts))
	}
	if r.Intn(4) == 0 { // dangling endpoints
		w.Connect("ghost-producer", "x", pick().Name, "a")
		w.Connect(pick().Name, "x", "ghost-consumer", "a")
	}
	nCons := r.Intn(n)
	for i := 0; i < nCons; i++ {
		w.Constrain(pick().Name, pick().Name)
	}
	if r.Intn(4) == 0 {
		w.Constrain("ghost-before", pick().Name)
		w.Constrain(pick().Name, "ghost-after")
	}
	return w
}

// TestTopologyMatchesNaive checks, on randomized graphs (cyclic and
// acyclic, with occasional dangling endpoints), the graph accessors the
// enactor resolves its state from against naive scans of the links and
// constraints: Outgoing keeps link order, Predecessors and Successors are
// the sorted distinct ends of links plus constraints and mutually inverse,
// and Ancestors is the closure of Predecessors.
func TestTopologyMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		w := randomGraph(rng.New(seed))
		preds := make(map[string]map[string]bool)
		succs := make(map[string]map[string]bool)
		edge := func(from, to string) {
			if preds[to] == nil {
				preds[to] = make(map[string]bool)
			}
			if succs[from] == nil {
				succs[from] = make(map[string]bool)
			}
			preds[to][from], succs[from][to] = true, true
		}
		for _, l := range w.Links {
			edge(l.FromProc, l.ToProc)
		}
		for _, c := range w.Constraints {
			edge(c.Before, c.After)
		}
		for _, p := range w.Processors() {
			name := p.Name
			var out []Link
			for _, l := range w.Links {
				if l.FromProc == name {
					out = append(out, l)
				}
			}
			if got := w.Outgoing(name); !slices.Equal(got, out) {
				t.Fatalf("seed %d: Outgoing(%s) = %v, want %v", seed, name, got, out)
			}
			gotPreds := w.Predecessors(name)
			if want := sortedKeys(preds[name]); !slices.Equal(gotPreds, want) {
				t.Fatalf("seed %d: Predecessors(%s) = %v, want %v", seed, name, gotPreds, want)
			}
			gotSuccs := w.Successors(name)
			if want := sortedKeys(succs[name]); !slices.Equal(gotSuccs, want) {
				t.Fatalf("seed %d: Successors(%s) = %v, want %v", seed, name, gotSuccs, want)
			}
			for _, q := range gotPreds {
				if !slices.Contains(w.Successors(q), name) {
					t.Fatalf("seed %d: %s precedes %s but Successors(%s) = %v", seed, q, name, q, w.Successors(q))
				}
			}
			for _, q := range gotSuccs {
				if !slices.Contains(w.Predecessors(q), name) {
					t.Fatalf("seed %d: %s follows %s but Predecessors(%s) = %v", seed, q, name, q, w.Predecessors(q))
				}
			}
			closure := make(map[string]bool)
			stack := append([]string(nil), gotPreds...)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !closure[n] {
					closure[n] = true
					stack = append(stack, w.Predecessors(n)...)
				}
			}
			delete(closure, name)
			if got := w.Ancestors(name); !slices.Equal(sortedKeys(got), sortedKeys(closure)) {
				t.Fatalf("seed %d: Ancestors(%s) = %v, want %v", seed, name, sortedKeys(got), sortedKeys(closure))
			}
		}
	}
}

// TestTopologyUnknownName checks the graph accessors give empty answers
// for names that are not in the workflow, on a fixed workflow and on the
// randomized graphs.
func TestTopologyUnknownName(t *testing.T) {
	w := New("w")
	w.AddSource("src")
	if got := w.Outgoing("nope"); len(got) != 0 {
		t.Fatalf("Outgoing(unknown) = %v", got)
	}
	if got := w.Incoming("nope"); len(got) != 0 {
		t.Fatalf("Incoming(unknown) = %v", got)
	}
	if got := w.Predecessors("nope"); len(got) != 0 {
		t.Fatalf("Predecessors(unknown) = %v", got)
	}
	if got := w.Ancestors("nope"); len(got) != 0 {
		t.Fatalf("Ancestors(unknown) = %v", got)
	}
	if _, ok := w.Proc("nope"); ok {
		t.Fatal("Proc(unknown) reported ok")
	}
	for seed := uint64(1); seed <= 200; seed++ {
		w := randomGraph(rng.New(seed))
		const unknown = "unknown"
		if n := len(w.Outgoing(unknown)) + len(w.Predecessors(unknown)) +
			len(w.Successors(unknown)) + len(w.Ancestors(unknown)); n != 0 {
			t.Fatalf("seed %d: unknown name has %d graph neighbours", seed, n)
		}
	}
}

func TestExpectedCountsChain(t *testing.T) {
	w := chain(t)
	counts, err := w.ExpectedCounts(map[string]int{"src": 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"P1", "P2", "P3", "sink"} {
		if counts[n] != 7 {
			t.Errorf("count[%s] = %d, want 7", n, counts[n])
		}
	}
}

func TestExpectedCountsDotAndSync(t *testing.T) {
	w := New("sync")
	w.AddSource("a")
	w.AddSource("b")
	p := w.AddService("pair", svc("pair"), []string{"x", "y"}, []string{"out"})
	p.Strategy = iterstrat.Dot(iterstrat.Port("x"), iterstrat.Port("y"))
	stat := w.AddService("mean", svc("mean"), []string{"vals"}, []string{"out"})
	stat.Synchronization = true
	w.AddSink("sink")
	w.Connect("a", SourcePort, "pair", "x")
	w.Connect("b", SourcePort, "pair", "y")
	w.Connect("pair", "out", "mean", "vals")
	w.Connect("mean", "out", "sink", SinkPort)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	counts, err := w.ExpectedCounts(map[string]int{"a": 5, "b": 3})
	if err != nil {
		t.Fatal(err)
	}
	if counts["pair"] != 3 {
		t.Errorf("count[pair] = %d, want min(5,3)=3", counts["pair"])
	}
	if counts["mean"] != 1 {
		t.Errorf("count[mean] = %d, want 1 (synchronization barrier)", counts["mean"])
	}
	if counts["sink"] != 1 {
		t.Errorf("count[sink] = %d, want 1", counts["sink"])
	}
}

func TestExpectedCountsCross(t *testing.T) {
	w := New("cross")
	w.AddSource("a")
	w.AddSource("b")
	p := w.AddService("all", svc("all"), []string{"x", "y"}, []string{"out"})
	p.Strategy = iterstrat.Cross(iterstrat.Port("x"), iterstrat.Port("y"))
	w.AddSink("sink")
	w.Connect("a", SourcePort, "all", "x")
	w.Connect("b", SourcePort, "all", "y")
	w.Connect("all", "out", "sink", SinkPort)
	counts, err := w.ExpectedCounts(map[string]int{"a": 4, "b": 5})
	if err != nil {
		t.Fatal(err)
	}
	if counts["all"] != 20 {
		t.Errorf("count[all] = %d, want 4*5=20", counts["all"])
	}
}

func TestExpectedCountsMissingSource(t *testing.T) {
	w := chain(t)
	if _, err := w.ExpectedCounts(map[string]int{}); err == nil {
		t.Fatal("missing source data not reported")
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("empty workflow", func(t *testing.T) {
		if err := New("e").Validate(); err == nil {
			t.Fatal("empty workflow validated")
		}
	})
	t.Run("missing service", func(t *testing.T) {
		w := New("x")
		w.Add(&Processor{Name: "p", Kind: KindService, InPorts: []string{"in"}})
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "no service") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown link producer", func(t *testing.T) {
		w := New("x")
		w.AddSink("s")
		w.Connect("ghost", "out", "s", SinkPort)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "unknown producer") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad port", func(t *testing.T) {
		w := New("x")
		w.AddSource("src")
		w.AddService("p", svc("p"), []string{"in"}, []string{"out"})
		w.AddSink("s")
		w.Connect("src", SourcePort, "p", "wrong")
		w.Connect("p", "out", "s", SinkPort)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "no input port") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unfed input port", func(t *testing.T) {
		w := New("x")
		w.AddService("p", svc("p"), []string{"in"}, nil)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "not fed") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("strategy misses port", func(t *testing.T) {
		w := New("x")
		w.AddSource("src")
		p := w.AddService("p", svc("p"), []string{"a", "b"}, nil)
		p.Strategy = iterstrat.Port("a")
		w.Connect("src", SourcePort, "p", "a")
		w.Connect("src", SourcePort, "p", "b")
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "not covered") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("strategy unknown port", func(t *testing.T) {
		w := New("x")
		w.AddSource("src")
		p := w.AddService("p", svc("p"), []string{"a"}, nil)
		p.Strategy = iterstrat.Dot(iterstrat.Port("a"), iterstrat.Port("zzz"))
		w.Connect("src", SourcePort, "p", "a")
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "unknown port") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("constraint unknown proc", func(t *testing.T) {
		w := New("x")
		w.AddSource("src")
		w.Constrain("src", "ghost")
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "constraint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("constant shadows port", func(t *testing.T) {
		w := New("x")
		w.AddSource("src")
		p := w.AddService("p", svc("p"), []string{"a"}, nil)
		p.Constants = map[string]string{"a": "1"}
		w.Connect("src", SourcePort, "p", "a")
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "shadows") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestAddPanics(t *testing.T) {
	w := New("x")
	w.AddSource("s")
	for name, f := range map[string]func(){
		"duplicate": func() { w.AddSource("s") },
		"empty":     func() { w.Add(&Processor{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s name did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConstraintsInPredecessors(t *testing.T) {
	w := New("x")
	w.AddSource("a")
	w.AddService("p", svc("p"), nil, nil)
	w.AddService("q", svc("q"), nil, nil)
	w.Constrain("p", "q")
	preds := w.Predecessors("q")
	if len(preds) != 1 || preds[0] != "p" {
		t.Fatalf("constraint not reflected in predecessors: %v", preds)
	}
	succs := w.Successors("p")
	if len(succs) != 1 || succs[0] != "q" {
		t.Fatalf("constraint not reflected in successors: %v", succs)
	}
}

func TestEffectiveStrategyDefault(t *testing.T) {
	w := New("x")
	p := w.Add(&Processor{Name: "p", Kind: KindService, Service: svc("p"),
		InPorts: []string{"a", "b"}})
	s := w.EffectiveStrategy(p)
	if s.String() != "dot(a,b)" {
		t.Fatalf("default strategy = %s, want dot(a,b)", s)
	}
	single := w.Add(&Processor{Name: "q", Kind: KindService, Service: svc("q"),
		InPorts: []string{"only"}})
	if got := w.EffectiveStrategy(single).String(); got != "only" {
		t.Fatalf("single-port strategy = %s", got)
	}
	src := w.AddSource("s")
	if w.EffectiveStrategy(src) != nil {
		t.Fatal("source has a strategy")
	}
}

// Property: for random DAGs (edges only forward), TopoOrder respects all
// edges and CriticalPathLength is within [1, #services].
func TestQuickRandomDAG(t *testing.T) {
	f := func(edges []uint16, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		w := New("rand")
		w.AddSource("src")
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('A' + i))
			w.AddService(names[i], svc(names[i]), []string{"in"}, []string{"out"})
			w.Connect("src", SourcePort, names[i], "in") // keep all ports fed
		}
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>4) % n
			if from < to { // forward edges only: remains a DAG
				w.Connect(names[from], "out", names[to], "in")
			}
		}
		if w.HasCycle() {
			return false
		}
		topo, err := w.TopoOrder()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, nm := range topo {
			pos[nm] = i
		}
		for _, l := range w.Links {
			if pos[l.FromProc] >= pos[l.ToProc] {
				return false
			}
		}
		nW, err := w.CriticalPathLength()
		return err == nil && nW >= 1 && nW <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
