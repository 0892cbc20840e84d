package services

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/grid"
)

// InternalRef points an input port of a group member at the output port of
// an earlier member: the data dependency resolved node-locally inside the
// grouped job, with no grid transfer and no catalog registration.
type InternalRef struct {
	Member int    // index of the producing member (must precede the consumer)
	Port   string // output name on that member
}

// GroupMember is one code in a grouped job: its wrapper plus the wiring of
// its inputs that are satisfied inside the group.
type GroupMember struct {
	W *Wrapper
	// Internal maps an input name of this member to the earlier member
	// output that feeds it. Inputs not listed are external: the grouped
	// service exposes them as "<memberName>.<inputName>".
	Internal map[string]InternalRef
}

// Grouped is a virtual service fusing a sequence of wrapped codes into a
// single grid job (the job-grouping optimization, Sec. 3.6 / Fig. 7
// bottom). Because the enactor has access to every member's executable
// descriptor, it can bind every code's inputs and outputs and submit one
// job invoking them in sequence: one submission overhead instead of k, and
// intermediate files never leave the worker node.
//
// The grouped service remains compatible with the service standards: it
// exposes the same invocation interface as any other service.
type Grouped struct {
	name    string
	g       Submitter // first member's target: the group submits as that tenant
	members []GroupMember
	// prefixes holds, per member and declared output, the prefix of the
	// names minted for it: "gfn://<group>/<out>." for the last member's
	// outputs, which are registered on the grid, and "tmp/<out>." for
	// intermediates, which stay on the worker node.
	prefixes [][]string
	names    namer // per index key, for deterministic output names
}

// NewGrouped builds a grouped service. Members run in slice order; every
// InternalRef must point to an earlier member and an output it declares.
// The exposed output ports are those of the last member.
func NewGrouped(name string, members []GroupMember) (*Grouped, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("services: group %s needs at least 2 members", name)
	}
	if members[0].W == nil {
		return nil, fmt.Errorf("services: group %s: member 0 has no wrapper", name)
	}
	sub := members[0].W.Submitter()
	for i, m := range members {
		if m.W == nil {
			return nil, fmt.Errorf("services: group %s: member %d has no wrapper", name, i)
		}
		// Handle identity, not just grid identity: tenant handles are
		// memoized, so this also rejects mixing tenants of one grid —
		// the group submits as a single tenant and mixed members would
		// silently be accounted to member 0's.
		if m.W.Submitter() != sub {
			return nil, fmt.Errorf("services: group %s: member %d targets a different grid or tenant", name, i)
		}
		for _, in := range slices.Sorted(maps.Keys(m.Internal)) {
			ref := m.Internal[in]
			if _, ok := m.W.Descriptor().Input(in); !ok {
				return nil, fmt.Errorf("services: group %s: member %d has no input %q", name, i, in)
			}
			if ref.Member >= i {
				return nil, fmt.Errorf("services: group %s: input %q of member %d wired to non-preceding member %d",
					name, in, i, ref.Member)
			}
			found := false
			for _, out := range members[ref.Member].W.Descriptor().OutputNames() {
				if out == ref.Port {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("services: group %s: member %d has no output %q", name, ref.Member, ref.Port)
			}
		}
	}
	prefixes := make([][]string, len(members))
	for i, m := range members {
		root := "tmp/"
		if i == len(members)-1 {
			root = "gfn://" + name + "/"
		}
		for _, o := range m.W.outs {
			prefixes[i] = append(prefixes[i], root+o.name+".")
		}
	}
	return &Grouped{name: name, g: sub, members: members, prefixes: prefixes, names: newNamer()}, nil
}

// Name implements Service.
func (gs *Grouped) Name() string { return gs.name }

// Members returns the member wrappers in execution order.
func (gs *Grouped) Members() []GroupMember { return gs.members }

// ExternalInputs lists the exposed input port names, in member order:
// "<memberName>.<inputName>" for every input not wired internally.
func (gs *Grouped) ExternalInputs() []string {
	var out []string
	for _, m := range gs.members {
		for _, in := range m.W.Descriptor().InputNames() {
			if _, internal := m.Internal[in]; !internal {
				out = append(out, m.W.Name()+"."+in)
			}
		}
	}
	return out
}

// OutputNames lists the exposed output ports: the last member's outputs.
func (gs *Grouped) OutputNames() []string {
	return gs.members[len(gs.members)-1].W.Descriptor().OutputNames()
}

// Invoke implements Service: it submits a single grid job running every
// member code in sequence. External inputs are read from req.Inputs under
// their qualified names; intermediate results are node-local temporary
// files.
func (gs *Grouped) Invoke(req Request, done func(Response)) {
	key, seq := gs.names.next(req.Index)
	last := len(gs.members) - 1

	var (
		stageIns  []string
		decls     []grid.FileDecl
		runtime   time.Duration
		perMember = make([]map[string]string, len(gs.members)) // outputs per member
	)
	for i, m := range gs.members {
		desc := m.W.Descriptor()
		inputs := make(map[string]string, len(desc.Executable.Inputs))
		for _, in := range desc.InputNames() {
			if ref, internal := m.Internal[in]; internal {
				inputs[in] = perMember[ref.Member][ref.Port]
				continue
			}
			qual := m.W.Name() + "." + in
			v, ok := req.Inputs[qual]
			if !ok {
				done(Response{Err: fmt.Errorf("services: group %s: input %q not bound", gs.name, qual)})
				return
			}
			inputs[in] = v
		}
		outputs := make(map[string]string, len(m.W.outs))
		for j, o := range m.W.outs {
			name := gs.names.mint(gs.prefixes[i][j], key, seq)
			outputs[o.name] = name
			if i == last {
				// Final outputs are registered on the grid; intermediates
				// stay on the worker node: no transfer, no registration —
				// the point of grouping.
				decls = append(decls, grid.FileDecl{Name: name, SizeMB: o.sizeMB})
			}
		}
		perMember[i] = outputs

		// Internal inputs are tmp/ paths: dedup drops them below.
		var err error
		if stageIns, err = desc.AppendStageIns(stageIns, inputs); err != nil {
			done(Response{Err: fmt.Errorf("services: group %s: %w", gs.name, err)})
			return
		}

		memberReq := Request{Index: req.Index, Inputs: inputs}
		runtime += m.W.Runtime()(memberReq)
	}

	spec := grid.JobSpec{
		Name:    gs.name + "[" + key + "]",
		Inputs:  dedup(stageIns),
		Outputs: decls,
		Runtime: runtime,
	}
	gs.g.Submit(spec, func(rec *grid.JobRecord) {
		resp := Response{Job: rec}
		if rec.Status != grid.StatusCompleted {
			resp.Err = fmt.Errorf("services: group %s: %w", gs.name, rec.Err)
		} else {
			resp.Outputs = perMember[last]
		}
		done(resp)
	})
}

// dedup removes repeated stage-in names while preserving order: members of
// a group often share inputs (e.g. the reference image), which are
// transferred once. A job stages a handful of files, so a linear scan of
// what is kept beats building a set.
func dedup(names []string) []string {
	out := names[:0]
	for _, n := range names {
		if !slices.Contains(out, n) && !strings.HasPrefix(n, "tmp/") {
			out = append(out, n)
		}
	}
	return out
}

var _ Service = (*Grouped)(nil)
