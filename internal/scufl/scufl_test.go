package scufl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/iterstrat"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

const fig1Doc = `<scufl name="fig1">
  <source name="src"/>
  <processor name="P1" strategy="in">
    <inport name="in"/>
    <outport name="out"/>
  </processor>
  <processor name="P2">
    <inport name="in"/>
    <outport name="out"/>
  </processor>
  <processor name="P3" synchronization="true">
    <inport name="in"/>
    <outport name="out"/>
  </processor>
  <sink name="sink"/>
  <link from="src:out" to="P1:in"/>
  <link from="P1:out" to="P2:in"/>
  <link from="P2:out" to="P3:in"/>
  <link from="P3:out" to="sink:in"/>
  <coordination before="P1" after="P2"/>
</scufl>`

func echoRegistry(eng *sim.Engine, names ...string) Registry {
	reg := Registry{}
	for _, n := range names {
		reg[n] = services.NewLocal(eng, n, 1024, services.ConstantRuntime(time.Second),
			func(req services.Request) map[string]string {
				v := req.Inputs["in"]
				if v == "" && len(req.Lists["in"]) > 0 {
					v = req.Lists["in"][0]
				}
				return map[string]string{"out": v}
			})
	}
	return reg
}

func TestParseFig1(t *testing.T) {
	eng := sim.NewEngine()
	w, err := Parse([]byte(fig1Doc), Options{Registry: echoRegistry(eng, "P1", "P2", "P3")})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "fig1" {
		t.Errorf("name = %q", w.Name)
	}
	if len(w.Processors()) != 5 {
		t.Errorf("processors = %d", len(w.Processors()))
	}
	p3, _ := w.Proc("P3")
	if !p3.Synchronization {
		t.Error("P3 synchronization flag lost")
	}
	p1, _ := w.Proc("P1")
	if p1.Strategy == nil || p1.Strategy.String() != "in" {
		t.Errorf("P1 strategy = %v", p1.Strategy)
	}
	if len(w.Constraints) != 1 || w.Constraints[0] != (workflow.Constraint{Before: "P1", After: "P2"}) {
		t.Errorf("constraints = %v", w.Constraints)
	}
}

func TestParsedWorkflowRuns(t *testing.T) {
	eng := sim.NewEngine()
	w, err := Parse([]byte(fig1Doc), Options{Registry: echoRegistry(eng, "P1", "P2", "P3")})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(eng, w, core.Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"src": {"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["sink"]) != 1 { // P3 is a sync barrier: one output
		t.Fatalf("sink = %v", res.Outputs["sink"])
	}
}

func TestParseEmbeddedWrapper(t *testing.T) {
	doc := `<scufl name="wrapped">
  <source name="images"/>
  <processor name="convert">
    <inport name="in"/>
    <outport name="out"/>
    <wrapper runtime="90s" jitter="0">
      <outsize name="out" mb="2.5"/>
      <description>
        <executable name="convert.sh">
          <access type="URL"><path value="http://example.org"/></access>
          <input name="in" option="-i"><access type="GFN"/></input>
          <output name="out" option="-o"><access type="GFN"/></output>
        </executable>
      </description>
    </wrapper>
  </processor>
  <sink name="results"/>
  <link from="images:out" to="convert:in"/>
  <link from="convert:out" to="results:in"/>
</scufl>`
	eng := sim.NewEngine()
	g := grid.New(eng, grid.IdealConfig(4))
	w, err := Parse([]byte(doc), Options{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := w.Proc("convert")
	wrap, ok := conv.Service.(*services.Wrapper)
	if !ok {
		t.Fatalf("service = %T, want *services.Wrapper", conv.Service)
	}
	if wrap.Name() != "convert.sh" {
		t.Errorf("wrapper name = %q", wrap.Name())
	}
	if wrap.OutputSize("out") != 2.5 {
		t.Errorf("outsize = %v", wrap.OutputSize("out"))
	}
	// End to end on the ideal grid: 90s runtime, zero overhead.
	g.Catalog().Register("gfn://img0", 7.8)
	e, err := core.New(eng, w, core.Options{DataParallelism: true, ServiceParallelism: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(map[string][]string{"images": {"gfn://img0"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 90*time.Second {
		t.Errorf("makespan = %v, want 90s", res.Makespan)
	}
}

func TestParseErrors(t *testing.T) {
	eng := sim.NewEngine()
	reg := echoRegistry(eng, "P1")
	cases := []struct {
		name, doc, want string
	}{
		{"malformed xml", "<scufl><processor", "scufl"},
		{"unknown service", `<scufl><source name="s"/><processor name="X"><inport name="in"/></processor><link from="s:out" to="X:in"/></scufl>`, "no service"},
		{"bad strategy", `<scufl><source name="s"/><processor name="P1" strategy="zig(a"><inport name="in"/></processor><link from="s:out" to="P1:in"/></scufl>`, "P1"},
		{"bad link ref", `<scufl><source name="s"/><processor name="P1"><inport name="in"/></processor><link from="sout" to="P1:in"/></scufl>`, "malformed port reference"},
		{"wrapper without grid", `<scufl><source name="s"/><processor name="W"><inport name="in"/><wrapper runtime="1s"><description><executable name="x"><input name="in" option="-i"/></executable></description></wrapper></processor><link from="s:out" to="W:in"/></scufl>`, "no grid"},
		{"bad runtime", `<scufl><source name="s"/><processor name="W"><inport name="in"/><wrapper runtime="fast"><description><executable name="x"><input name="in" option="-i"/></executable></description></wrapper></processor><link from="s:out" to="W:in"/></scufl>`, "bad runtime"},
		{"invalid workflow", `<scufl><processor name="P1"><inport name="in"/></processor></scufl>`, "not fed"},
		{"duplicate source", `<scufl name="w"><source name="a"/><source name="a"/></scufl>`, "scufl: workflow w: duplicate processor a"},
		{"empty name", `<scufl name="w"><source/></scufl>`, "scufl: workflow w: processor with empty name"},
		{"processor named like a source", `<scufl name="w"><source name="a"/><processor name="a"><inport name="in"/></processor></scufl>`, "scufl: workflow w: duplicate processor a"},
	}
	for _, c := range cases {
		opts := Options{Registry: reg}
		if strings.Contains(c.name, "bad runtime") {
			eng2 := sim.NewEngine()
			opts.Grid = grid.New(eng2, grid.IdealConfig(1))
		}
		_, err := Parse([]byte(c.doc), opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	reg := echoRegistry(eng, "P1", "P2", "P3")
	w, err := Parse([]byte(fig1Doc), Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Write(w)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Parse(out, Options{Registry: reg})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if len(w2.Processors()) != len(w.Processors()) ||
		len(w2.Links) != len(w.Links) ||
		len(w2.Constraints) != len(w.Constraints) {
		t.Fatalf("round trip lost structure:\n%s", out)
	}
	p3, _ := w2.Proc("P3")
	if !p3.Synchronization {
		t.Error("synchronization flag lost in round trip")
	}
}

func TestWriteConstantsAndStrategy(t *testing.T) {
	eng := sim.NewEngine()
	w := workflow.New("c")
	w.AddSource("s")
	reg := echoRegistry(eng, "p")
	p := w.AddService("p", reg["p"], []string{"a", "b"}, nil)
	p.Constants = map[string]string{"zz": "1", "aa": "2"}
	strat, err := iterstrat.Parse("cross(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	p.Strategy = strat
	w.Connect("s", workflow.SourcePort, "p", "a")
	w.Connect("s", workflow.SourcePort, "p", "b")
	out, werr := Write(w)
	if werr != nil {
		t.Fatal(werr)
	}
	text := string(out)
	if !strings.Contains(text, `strategy="cross(a,b)"`) {
		t.Errorf("strategy missing:\n%s", text)
	}
	// Constants serialized in name order for determinism.
	if strings.Index(text, `name="aa"`) > strings.Index(text, `name="zz"`) {
		t.Errorf("constants not ordered:\n%s", text)
	}
}
