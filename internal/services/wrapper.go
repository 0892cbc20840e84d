package services

import (
	"fmt"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/provenance"
)

// Wrapper is the paper's generic submission service (Sec. 3.6): a service
// that can wrap any executable code described by an XML descriptor. At
// invocation time it composes the actual command line from the descriptor
// and the bound inputs, chooses fresh GFNs for the outputs, submits one
// grid job, and reports the registered outputs.
type Wrapper struct {
	g    Submitter
	desc *descriptor.Description
	run  RuntimeModel
	// outSizes gives the size in MB of each produced file (by output name).
	outSizes map[string]float64
	// invoked counts invocations per index key, so output GFNs are unique
	// yet deterministic: re-running the same workflow under different
	// optimization settings produces identical output names, which is how
	// tests assert that optimizations change timing but never results.
	invoked map[string]int
}

// NewWrapper builds a generic wrapper around the descriptor. outSizes maps
// each declared output name to the size of the file the code produces. g
// is where jobs go: pass the *grid.Grid itself, or a *federation.Tenant
// handle to broker every submission and tag it with that tenant.
func NewWrapper(g Submitter, desc *descriptor.Description, run RuntimeModel, outSizes map[string]float64) (*Wrapper, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if run == nil {
		return nil, fmt.Errorf("services: wrapper %s: nil runtime model", desc.Executable.Name)
	}
	for _, out := range desc.OutputNames() {
		if _, ok := outSizes[out]; !ok {
			return nil, fmt.Errorf("services: wrapper %s: no size for output %q", desc.Executable.Name, out)
		}
	}
	return &Wrapper{g: g, desc: desc, run: run, outSizes: outSizes, invoked: make(map[string]int)}, nil
}

// Name implements Service; the service is named after the wrapped code.
func (w *Wrapper) Name() string { return w.desc.Executable.Name }

// Descriptor returns the wrapped executable's descriptor. The workflow
// enactor reads it to compose grouped jobs.
func (w *Wrapper) Descriptor() *descriptor.Description { return w.desc }

// Runtime returns the wrapper's runtime model.
func (w *Wrapper) Runtime() RuntimeModel { return w.run }

// OutputSize returns the declared size of the named output.
func (w *Wrapper) OutputSize(name string) float64 { return w.outSizes[name] }

// Catalog returns the replica catalog this wrapper's jobs stage from and
// register into.
func (w *Wrapper) Catalog() *grid.Catalog { return w.g.Catalog() }

// Submitter returns the submission target (a grid, a tenant handle on a
// shared grid, or a federation tenant). Grouped services submit through
// their first member's target, preserving tenancy.
func (w *Wrapper) Submitter() Submitter { return w.g }

// bind chooses fresh output GFNs and composes the bindings for one
// invocation.
func (w *Wrapper) bind(req Request) (descriptor.Bindings, map[string]string) {
	key := provenance.Key(req.Index)
	n := w.invoked[key]
	w.invoked[key]++
	outputs := make(map[string]string, len(w.desc.Executable.Outputs))
	for _, out := range w.desc.OutputNames() {
		outputs[out] = fmt.Sprintf("gfn://%s/%s.%s.%d", w.Name(), out, key, n)
	}
	return descriptor.Bindings{Inputs: req.Inputs, Outputs: outputs}, outputs
}

// Invoke implements Service: one invocation is one grid job.
func (w *Wrapper) Invoke(req Request, done func(Response)) {
	bind, outputs := w.bind(req)
	cmd, err := w.desc.CommandLine(bind)
	if err != nil {
		done(Response{Err: err})
		return
	}
	stage, err := w.desc.StageIns(bind)
	if err != nil {
		done(Response{Err: err})
		return
	}
	decls := make([]grid.FileDecl, 0, len(outputs))
	for name, gfn := range outputs {
		decls = append(decls, grid.FileDecl{Name: gfn, SizeMB: w.outSizes[name]})
	}
	spec := grid.JobSpec{
		Name:    fmt.Sprintf("%s[%s]", w.Name(), provenance.Key(req.Index)),
		Command: cmd,
		Inputs:  stage,
		Outputs: decls,
		Runtime: w.run(req),
	}
	w.g.Submit(spec, func(rec *grid.JobRecord) {
		resp := Response{Jobs: []*grid.JobRecord{rec}}
		if rec.Status != grid.StatusCompleted {
			resp.Err = fmt.Errorf("services: %s: %w", w.Name(), rec.Err)
		} else {
			resp.Outputs = outputs
		}
		done(resp)
	})
}

// ensure interface satisfaction
var (
	_ Service = (*Wrapper)(nil)
	_ Service = (*Local)(nil)
)
