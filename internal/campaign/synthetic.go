package campaign

import (
	"fmt"
	"math"
	"time"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/workflow"
)

// SyntheticChain returns a BuildFunc for a linear pipeline of n
// wrapper-backed stages processing `items` input files of fileMB each,
// every stage costing `runtime` of compute on a reference node. Stage
// executables are named "<tenant>.stageNN", which keeps output GFNs unique
// across tenants sharing one catalog, and the tenant's input files are
// registered under "gfn://<tenant>/..." at build time. It is the standard
// workload for campaign scenarios: heterogeneous tenant mixes differ only
// in their Options, so contention effects are attributable to scheduling,
// not to workload shape.
func SyntheticChain(n, items int, runtime time.Duration, fileMB float64) BuildFunc {
	return SyntheticChainPlaced(n, items, runtime, fileMB, grid.Site{}, 0)
}

// SyntheticChainPlaced is SyntheticChain with skewed input placement: a
// `skew` fraction of the tenant's input files (the first ⌈skew×items⌉, a
// deterministic rule) is registered as replicas pinned at `home` — a
// member grid of a federation, typically Site{Grid: name} — while the
// rest stays unplaced (local everywhere, i.e. uniformly replicated). With
// skew 0 it is exactly SyntheticChain; with skew 1 every input is
// resident only at the home site and any job brokered elsewhere pays the
// link model's fetch cost. It is the standard workload of locality
// scenarios: sweeping skew against WAN bandwidth maps out when
// data-aware brokering pays.
func SyntheticChainPlaced(n, items int, runtime time.Duration, fileMB float64, home grid.Site, skew float64) BuildFunc {
	sizes := make([]float64, max(items, 0))
	for i := range sizes {
		sizes[i] = fileMB
	}
	return SyntheticChainSized(n, sizes, runtime, fileMB, home, skew)
}

// SyntheticChainSized generalizes SyntheticChainPlaced to a
// heterogeneous input corpus: input i is registered at sizes[i] MB
// (heavy-tailed corpora drawn by a scenario generator), while every
// stage output is a uniform outMB. Placement skew works as in
// SyntheticChainPlaced: the first ⌈skew×len(sizes)⌉ inputs are pinned at
// home. SyntheticChainPlaced is the case of every size equal to outMB.
func SyntheticChainSized(n int, sizes []float64, runtime time.Duration, outMB float64, home grid.Site, skew float64) BuildFunc {
	return func(t Handle) (*workflow.Workflow, map[string][]string, error) {
		if n < 1 || len(sizes) < 1 {
			return nil, nil, fmt.Errorf("campaign: synthetic chain needs at least one stage and one item")
		}
		if skew < 0 || skew > 1 {
			return nil, nil, fmt.Errorf("campaign: placement skew %v outside [0, 1]", skew)
		}
		for _, mb := range sizes {
			if mb <= 0 {
				return nil, nil, fmt.Errorf("campaign: non-positive input size %v", mb)
			}
		}
		tn := t.Name()
		wf := workflow.New(tn)
		wf.AddSource("src")
		prev, prevPort := "src", workflow.SourcePort
		for s := 0; s < n; s++ {
			name := fmt.Sprintf("%s.stage%02d", tn, s)
			w, err := services.NewWrapper(t, stageDescriptor(name), services.ConstantRuntime(runtime),
				map[string]float64{"out": outMB})
			if err != nil {
				return nil, nil, err
			}
			wf.AddService(name, w, []string{"in"}, []string{"out"})
			wf.Connect(prev, prevPort, name, "in")
			prev, prevPort = name, "out"
		}
		wf.AddSink("sink")
		wf.Connect(prev, prevPort, "sink", workflow.SinkPort)

		placed := int(math.Ceil(skew * float64(len(sizes))))
		inputs := make([]string, len(sizes))
		for i, mb := range sizes {
			gfn := fmt.Sprintf("gfn://%s/input%04d", tn, i)
			if i < placed && !home.IsZero() {
				t.Catalog().RegisterAt(gfn, mb, home)
			} else {
				t.Catalog().Register(gfn, mb)
			}
			inputs[i] = gfn
		}
		return wf, map[string][]string{"src": inputs}, nil
	}
}

// stageDescriptor builds the executable descriptor of one synthetic stage:
// one GFN input, one GFN output. It is a literal rather than a parsed XML
// document because set-up builds one per stage of every tenant;
// services.NewWrapper validates it.
func stageDescriptor(name string) *descriptor.Description {
	return &descriptor.Description{Executable: descriptor.Executable{
		Name:    name,
		Access:  &descriptor.Access{Type: descriptor.URL, Path: &descriptor.Path{Value: "http://example.org"}},
		Value:   &descriptor.ValueElem{Value: "stage"},
		Inputs:  []descriptor.Input{{Name: "in", Option: "-i", Access: &descriptor.Access{Type: descriptor.GFN}}},
		Outputs: []descriptor.Output{{Name: "out", Option: "-o", Access: &descriptor.Access{Type: descriptor.GFN}}},
	}}
}
