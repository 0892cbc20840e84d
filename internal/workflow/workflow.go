// Package workflow models the application logic of a service-based
// workflow (paper Sec. 2.1): a directed graph of processors with input and
// output ports, data links connecting output ports to input ports, data
// sources (processors without input ports), data sinks (processors without
// output ports), iteration strategies over multi-port inputs, and
// synchronization processors (Sec. 2.3).
//
// Unlike task-based workflows, the graph may contain loops (Fig. 2): an
// input port can collect data from several producers, including from a
// downstream processor's conditional output, which is how optimization
// loops with a runtime-determined iteration count are composed.
package workflow

import (
	"fmt"
	"sort"

	"repro/internal/iterstrat"
	"repro/internal/services"
)

// Kind distinguishes processor roles.
type Kind int

// Processor kinds.
const (
	// KindService is an ordinary application-service processor.
	KindService Kind = iota
	// KindSource is a data source: no input ports, one output port ("out"),
	// delivering the workflow's input data set.
	KindSource
	// KindSink is a data sink: one input port ("in"), collecting produced
	// data.
	KindSink
)

// SourcePort is the implicit output port of a data source.
const SourcePort = "out"

// SinkPort is the implicit input port of a data sink.
const SinkPort = "in"

// Processor is a node of the workflow graph.
type Processor struct {
	Name string
	Kind Kind
	// Service performs the work (nil for sources and sinks).
	Service services.Service
	// InPorts and OutPorts declare the interface. For sources/sinks they
	// are fixed.
	InPorts  []string
	OutPorts []string
	// Strategy is the iteration strategy over InPorts (nil defaults to a
	// dot product over all input ports, the most common case).
	Strategy iterstrat.Strategy
	// Synchronization marks a barrier processor (Sec. 2.3): it fires once,
	// with the complete input lists, after all its ancestors are inactive.
	Synchronization bool
	// Constants are fixed parameter bindings added to every invocation
	// (e.g. the "scale" option), bypassing the data flow.
	Constants map[string]string
}

// HasInPort reports whether the processor declares the input port.
func (p *Processor) HasInPort(port string) bool { return contains(p.InPorts, port) }

// HasOutPort reports whether the processor declares the output port.
func (p *Processor) HasOutPort(port string) bool { return contains(p.OutPorts, port) }

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Link is a data dependency from an output port to an input port.
type Link struct {
	FromProc, FromPort string
	ToProc, ToPort     string
}

// String renders the link as "proc:port -> proc:port".
func (l Link) String() string {
	return fmt.Sprintf("%s:%s -> %s:%s", l.FromProc, l.FromPort, l.ToProc, l.ToPort)
}

// Constraint is a coordination constraint (Sec. 4.1): a control link that
// enforces completion of Before prior to any invocation of After, even
// without a data dependency.
type Constraint struct {
	Before, After string
}

// Workflow is the complete application graph.
type Workflow struct {
	Name        string
	order       []string // processor names in insertion order
	procs       map[string]*Processor
	Links       []Link
	Constraints []Constraint
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, procs: make(map[string]*Processor)}
}

// Add inserts a processor. It panics on duplicate or empty names (workflow
// construction errors are programming errors; file-based construction
// validates beforehand).
func (w *Workflow) Add(p *Processor) *Processor {
	if p.Name == "" {
		panic("workflow: processor with empty name")
	}
	if _, dup := w.procs[p.Name]; dup {
		panic("workflow: duplicate processor " + p.Name)
	}
	switch p.Kind {
	case KindSource:
		p.InPorts = nil
		p.OutPorts = []string{SourcePort}
	case KindSink:
		p.InPorts = []string{SinkPort}
		p.OutPorts = nil
	}
	w.procs[p.Name] = p
	w.order = append(w.order, p.Name)
	return p
}

// AddSource declares a data source.
func (w *Workflow) AddSource(name string) *Processor {
	return w.Add(&Processor{Name: name, Kind: KindSource})
}

// AddSink declares a data sink.
func (w *Workflow) AddSink(name string) *Processor {
	return w.Add(&Processor{Name: name, Kind: KindSink})
}

// AddService declares an ordinary service processor with the given ports.
func (w *Workflow) AddService(name string, svc services.Service, inPorts, outPorts []string) *Processor {
	return w.Add(&Processor{
		Name: name, Kind: KindService, Service: svc,
		InPorts: inPorts, OutPorts: outPorts,
	})
}

// Connect adds a data link. Panics on unknown endpoints so construction
// mistakes fail fast; Validate re-checks everything for parsed workflows.
func (w *Workflow) Connect(fromProc, fromPort, toProc, toPort string) {
	w.Links = append(w.Links, Link{fromProc, fromPort, toProc, toPort})
}

// Constrain adds a coordination constraint.
func (w *Workflow) Constrain(before, after string) {
	w.Constraints = append(w.Constraints, Constraint{before, after})
}

// Proc returns the named processor.
func (w *Workflow) Proc(name string) (*Processor, bool) {
	p, ok := w.procs[name]
	return p, ok
}

// Processors returns all processors in insertion order.
func (w *Workflow) Processors() []*Processor {
	out := make([]*Processor, len(w.order))
	for i, n := range w.order {
		out[i] = w.procs[n]
	}
	return out
}

// Sources returns the data sources in insertion order.
func (w *Workflow) Sources() []*Processor { return w.byKind(KindSource) }

// Sinks returns the data sinks in insertion order.
func (w *Workflow) Sinks() []*Processor { return w.byKind(KindSink) }

func (w *Workflow) byKind(k Kind) []*Processor {
	var out []*Processor
	for _, n := range w.order {
		if p := w.procs[n]; p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// Incoming returns the links feeding the processor, grouped by input port.
func (w *Workflow) Incoming(name string) map[string][]Link {
	out := make(map[string][]Link)
	for _, l := range w.Links {
		if l.ToProc == name {
			out[l.ToPort] = append(out[l.ToPort], l)
		}
	}
	return out
}

// Outgoing returns the links leaving the processor.
func (w *Workflow) Outgoing(name string) []Link {
	var out []Link
	for _, l := range w.Links {
		if l.FromProc == name {
			out = append(out, l)
		}
	}
	return out
}

// Predecessors returns the distinct upstream processor names (data links
// and coordination constraints), sorted.
func (w *Workflow) Predecessors(name string) []string {
	set := make(map[string]bool)
	for _, l := range w.Links {
		if l.ToProc == name {
			set[l.FromProc] = true
		}
	}
	for _, c := range w.Constraints {
		if c.After == name {
			set[c.Before] = true
		}
	}
	return sortedKeys(set)
}

// Successors returns the distinct downstream processor names, sorted.
func (w *Workflow) Successors(name string) []string {
	set := make(map[string]bool)
	for _, l := range w.Links {
		if l.FromProc == name {
			set[l.ToProc] = true
		}
	}
	for _, c := range w.Constraints {
		if c.Before == name {
			set[c.After] = true
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EffectiveStrategy returns the processor's iteration strategy, defaulting
// to a dot product over all its input ports.
func (w *Workflow) EffectiveStrategy(p *Processor) iterstrat.Strategy {
	if p.Strategy != nil {
		return p.Strategy
	}
	if len(p.InPorts) == 0 {
		return nil
	}
	leaves := make([]iterstrat.Strategy, len(p.InPorts))
	for i, port := range p.InPorts {
		leaves[i] = iterstrat.Port(port)
	}
	if len(leaves) == 1 {
		return leaves[0]
	}
	return iterstrat.Dot(leaves...)
}
