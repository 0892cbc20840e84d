package services

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sim"
)

func TestInvokeBatchComposesOneJob(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 8)
	g.Catalog().Register("gfn://r", 7.8)
	g.Catalog().Register("gfn://f", 7.8)
	w := crestWrapper(t, g, 30*time.Second)

	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = Request{
			Index: []int{i},
			Inputs: map[string]string{
				"floating_image": "gfn://f", "reference_image": "gfn://r", "scale": "1",
			},
		}
	}
	var resps []Response
	w.InvokeBatch(reqs, func(rs []Response) { resps = rs })
	eng.Run()

	if len(g.Records()) != 1 {
		t.Fatalf("batch produced %d jobs, want 1", len(g.Records()))
	}
	job := g.Records()[0]
	if job.Spec.Name != "CrestLines.pl[batch:3:0]" {
		t.Fatalf("batch job name = %q", job.Spec.Name)
	}
	if job.Spec.Runtime != 90*time.Second {
		t.Fatalf("batch runtime = %v, want 90s (sum)", job.Spec.Runtime)
	}
	// Shared inputs staged once.
	if len(job.Spec.Inputs) != 2 {
		t.Fatalf("staged = %v, want the two shared images once", job.Spec.Inputs)
	}
	// Three invocations in one job: 3×2 output declarations, each
	// invocation's in descriptor order, all registered.
	if len(job.Spec.Outputs) != 6 {
		t.Fatalf("declared outputs = %d, want 6", len(job.Spec.Outputs))
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("resp %d: %v", i, r.Err)
		}
		if len(r.Outputs) != 2 {
			t.Fatalf("resp %d outputs = %v", i, r.Outputs)
		}
		for j, port := range []string{"crest_reference", "crest_floating"} {
			if got := job.Spec.Outputs[2*i+j].Name; got != r.Outputs[port] {
				t.Fatalf("output decl %d = %q, want resp %d's %s %q", 2*i+j, got, i, port, r.Outputs[port])
			}
		}
		if r.Job != job {
			t.Fatalf("resp %d carries job %p, want the batch's %p", i, r.Job, job)
		}
	}
}

func TestInvokeBatchGridFailure(t *testing.T) {
	cfg := grid.IdealConfig(4)
	cfg.Failures = grid.FailureConfig{Probability: 1, DetectDelay: time.Second, MaxRetries: 1}
	eng := sim.NewEngine()
	g := grid.New(eng, cfg)
	g.Catalog().Register("gfn://r", 1)
	g.Catalog().Register("gfn://f", 1)
	w := crestWrapper(t, g, time.Second)
	var resps []Response
	w.InvokeBatch([]Request{
		{Index: []int{0}, Inputs: map[string]string{"floating_image": "gfn://f", "reference_image": "gfn://r", "scale": "1"}},
		{Index: []int{1}, Inputs: map[string]string{"floating_image": "gfn://f", "reference_image": "gfn://r", "scale": "1"}},
	}, func(rs []Response) { resps = rs })
	eng.Run()
	if len(resps) != 2 {
		t.Fatalf("responses = %d", len(resps))
	}
	for i, r := range resps {
		if r.Err == nil {
			t.Fatalf("resp %d: batch grid failure not propagated", i)
		}
	}
}

func TestGroupedGridFailure(t *testing.T) {
	cfg := grid.IdealConfig(4)
	cfg.Failures = grid.FailureConfig{Probability: 1, DetectDelay: time.Second, MaxRetries: 1}
	eng := sim.NewEngine()
	g := grid.New(eng, cfg)
	g.Catalog().Register("gfn://ref0", 1)
	g.Catalog().Register("gfn://flo0", 1)
	cl := crestWrapper(t, g, time.Second)
	cm := matchWrapper(t, g, time.Second)
	grp, err := NewGrouped("G", []GroupMember{
		{W: cl},
		{W: cm, Internal: map[string]InternalRef{
			"crest_reference": {Member: 0, Port: "crest_reference"},
			"crest_floating":  {Member: 0, Port: "crest_floating"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	grp.Invoke(Request{Inputs: map[string]string{
		"CrestLines.pl.floating_image":  "gfn://flo0",
		"CrestLines.pl.reference_image": "gfn://ref0",
		"CrestLines.pl.scale":           "1",
		"CrestMatch.reference_image":    "gfn://ref0",
	}}, func(r Response) { resp = r })
	eng.Run()
	if resp.Err == nil {
		t.Fatal("grouped grid failure not propagated")
	}
}

func TestWrapperAccessors(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	w := crestWrapper(t, g, 7*time.Second)
	if w.Catalog() != g.Catalog() {
		t.Error("Catalog() accessor broken")
	}
	if w.Submitter() != Submitter(g) {
		t.Error("Submitter() accessor broken")
	}
	if w.Descriptor().Executable.Name != "CrestLines.pl" {
		t.Error("Descriptor() accessor broken")
	}
	if w.Runtime()(Request{}) != 7*time.Second {
		t.Error("Runtime() accessor broken")
	}
	if w.OutputSize("crest_reference") != 1.0 {
		t.Error("OutputSize() accessor broken")
	}
}

func TestGroupedDifferentGridsRejected(t *testing.T) {
	eng := sim.NewEngine()
	g1 := testGrid(eng, 1)
	g2 := testGrid(eng, 1)
	a := crestWrapper(t, g1, time.Second)
	b := matchWrapper(t, g2, time.Second)
	if _, err := NewGrouped("x", []GroupMember{{W: a}, {W: b}}); err == nil {
		t.Fatal("cross-grid group accepted")
	}
}

func TestGroupedNilMemberRejected(t *testing.T) {
	eng := sim.NewEngine()
	g := testGrid(eng, 1)
	a := crestWrapper(t, g, time.Second)
	if _, err := NewGrouped("x", []GroupMember{{W: a}, {W: nil}}); err == nil {
		t.Fatal("nil member accepted")
	}
}
