package services

import (
	"fmt"
	"strconv"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/provenance"
)

// Wrapper is the paper's generic submission service (Sec. 3.6): a service
// that can wrap any executable code described by an XML descriptor. At
// invocation time it checks that every declared input is bound, chooses
// fresh GFNs for the outputs, submits one grid job that stages the GFN
// inputs, and reports the registered outputs.
type Wrapper struct {
	g    Submitter
	desc *descriptor.Description
	run  RuntimeModel
	// outs are the declared outputs in descriptor order: the order the
	// job registers them in, which decides eviction victims and repair
	// order downstream, so it must not depend on map iteration.
	outs []output
	// staged is the number of Staged inputs: every job's stage-in count.
	staged int
	// names counts invocations per index key, so output GFNs are unique
	// yet deterministic: re-running the same workflow under different
	// optimization settings produces identical output names, which is how
	// tests assert that optimizations change timing but never results.
	names namer
}

// output is one declared output with what its minted GFNs share.
type output struct {
	name   string
	prefix string // "gfn://<exe>/<out>."
	sizeMB float64
}

// NewWrapper builds a generic wrapper around the descriptor. outSizes maps
// each declared output name to the size of the file the code produces. g
// is where jobs go: pass the *grid.Grid itself, or a *federation.Tenant
// handle to broker every submission and tag it with that tenant.
func NewWrapper(g Submitter, desc *descriptor.Description, run RuntimeModel, outSizes map[string]float64) (*Wrapper, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	exe := desc.Executable.Name
	if run == nil {
		return nil, fmt.Errorf("services: wrapper %s: nil runtime model", exe)
	}
	outs := make([]output, len(desc.Executable.Outputs))
	for i, o := range desc.Executable.Outputs {
		mb, ok := outSizes[o.Name]
		if !ok {
			return nil, fmt.Errorf("services: wrapper %s: no size for output %q", exe, o.Name)
		}
		outs[i] = output{name: o.Name, prefix: "gfn://" + exe + "/" + o.Name + ".", sizeMB: mb}
	}
	staged := 0
	for _, in := range desc.Executable.Inputs {
		if in.Staged() {
			staged++
		}
	}
	return &Wrapper{g: g, desc: desc, run: run, outs: outs, staged: staged, names: newNamer()}, nil
}

// Name implements Service; the service is named after the wrapped code.
func (w *Wrapper) Name() string { return w.desc.Executable.Name }

// Descriptor returns the wrapped executable's descriptor. The workflow
// enactor reads it to compose grouped jobs.
func (w *Wrapper) Descriptor() *descriptor.Description { return w.desc }

// Runtime returns the wrapper's runtime model.
func (w *Wrapper) Runtime() RuntimeModel { return w.run }

// OutputSize returns the declared size of the named output.
func (w *Wrapper) OutputSize(name string) float64 {
	for _, o := range w.outs {
		if o.name == name {
			return o.sizeMB
		}
	}
	return 0
}

// Catalog returns the replica catalog this wrapper's jobs stage from and
// register into.
func (w *Wrapper) Catalog() *grid.Catalog { return w.g.Catalog() }

// Submitter returns the submission target (a grid, a tenant handle on a
// shared grid, or a federation tenant). Grouped services submit through
// their first member's target, preserving tenancy.
func (w *Wrapper) Submitter() Submitter { return w.g }

// bind chooses fresh output GFNs for one invocation. It returns the
// invocation's index key, the outputs by name, and decls extended with
// the outputs' declarations in descriptor order.
func (w *Wrapper) bind(req Request, decls []grid.FileDecl) (string, map[string]string, []grid.FileDecl) {
	key, seq := w.names.next(req.Index)
	outputs := make(map[string]string, len(w.outs))
	for _, o := range w.outs {
		gfn := w.names.mint(o.prefix, key, seq)
		outputs[o.name] = gfn
		decls = append(decls, grid.FileDecl{Name: gfn, SizeMB: o.sizeMB})
	}
	return key, outputs, decls
}

// Invoke implements Service: one invocation is one grid job.
func (w *Wrapper) Invoke(req Request, done func(Response)) {
	key, outputs, decls := w.bind(req, make([]grid.FileDecl, 0, len(w.outs)))
	stage, err := w.desc.AppendStageIns(make([]string, 0, w.staged), req.Inputs)
	if err != nil {
		done(Response{Err: err})
		return
	}
	spec := grid.JobSpec{
		Name:    w.Name() + "[" + key + "]",
		Inputs:  stage,
		Outputs: decls,
		Runtime: w.run(req),
	}
	w.g.Submit(spec, func(rec *grid.JobRecord) {
		resp := Response{Job: rec}
		if rec.Status != grid.StatusCompleted {
			resp.Err = fmt.Errorf("services: %s: %w", w.Name(), rec.Err)
		} else {
			resp.Outputs = outputs
		}
		done(resp)
	})
}

// namer mints a service's deterministic per-invocation names: the
// invocation's index key, a sequence number counting earlier invocations
// of that key, and names built from both. Its scratch buffer is reused,
// so minting allocates only the strings it returns.
type namer struct {
	invoked map[string]int
	buf     []byte
}

func newNamer() namer { return namer{invoked: make(map[string]int)} }

// next returns the key of index and the number of earlier invocations
// under that key, and counts this one.
func (n *namer) next(index []int) (key string, seq int) {
	n.buf = provenance.AppendKey(n.buf[:0], index)
	seq = n.invoked[string(n.buf)]
	key = string(n.buf)
	n.invoked[key] = seq + 1
	return key, seq
}

// mint returns prefix + key + "." + seq.
func (n *namer) mint(prefix, key string, seq int) string {
	n.buf = append(n.buf[:0], prefix...)
	n.buf = append(n.buf, key...)
	n.buf = append(n.buf, '.')
	n.buf = strconv.AppendInt(n.buf, int64(seq), 10)
	return string(n.buf)
}

// ensure interface satisfaction
var (
	_ Service = (*Wrapper)(nil)
	_ Service = (*Local)(nil)
)
