package workflow

import (
	"fmt"
)

// Validate checks structural soundness: link endpoints exist and reference
// declared ports, strategies cover exactly the input ports, sources/sinks
// have the right shape, every service processor has a service, and
// constraints reference existing processors.
func (w *Workflow) Validate() error {
	if len(w.procs) == 0 {
		return fmt.Errorf("workflow %s: empty", w.Name)
	}
	for _, p := range w.Processors() {
		switch p.Kind {
		case KindService:
			if p.Service == nil {
				return fmt.Errorf("workflow %s: processor %s has no service", w.Name, p.Name)
			}
		case KindSource:
			if len(w.Incoming(p.Name)) != 0 {
				return fmt.Errorf("workflow %s: source %s has incoming links", w.Name, p.Name)
			}
		case KindSink:
			if len(w.Outgoing(p.Name)) != 0 {
				return fmt.Errorf("workflow %s: sink %s has outgoing links", w.Name, p.Name)
			}
		}
		if p.Kind == KindService {
			strat := w.EffectiveStrategy(p)
			if len(p.InPorts) > 0 {
				if err := validateStrategyCoverage(p, strat); err != nil {
					return fmt.Errorf("workflow %s: %w", w.Name, err)
				}
			}
		}
		for _, port := range p.InPorts {
			if _, shadow := p.Constants[port]; shadow {
				return fmt.Errorf("workflow %s: processor %s: constant %q shadows an input port",
					w.Name, p.Name, port)
			}
		}
	}
	for _, l := range w.Links {
		from, ok := w.procs[l.FromProc]
		if !ok {
			return fmt.Errorf("workflow %s: link %s: unknown producer", w.Name, l)
		}
		if !from.HasOutPort(l.FromPort) {
			return fmt.Errorf("workflow %s: link %s: %s has no output port %q", w.Name, l, l.FromProc, l.FromPort)
		}
		to, ok := w.procs[l.ToProc]
		if !ok {
			return fmt.Errorf("workflow %s: link %s: unknown consumer", w.Name, l)
		}
		if !to.HasInPort(l.ToPort) {
			return fmt.Errorf("workflow %s: link %s: %s has no input port %q", w.Name, l, l.ToProc, l.ToPort)
		}
	}
	for _, p := range w.Processors() {
		if p.Kind == KindService || p.Kind == KindSink {
			in := w.Incoming(p.Name)
			for _, port := range p.InPorts {
				if len(in[port]) == 0 {
					return fmt.Errorf("workflow %s: input port %s:%s is not fed by any link",
						w.Name, p.Name, port)
				}
			}
		}
	}
	for _, c := range w.Constraints {
		if _, ok := w.procs[c.Before]; !ok {
			return fmt.Errorf("workflow %s: constraint references unknown processor %q", w.Name, c.Before)
		}
		if _, ok := w.procs[c.After]; !ok {
			return fmt.Errorf("workflow %s: constraint references unknown processor %q", w.Name, c.After)
		}
	}
	return nil
}

func validateStrategyCoverage(p *Processor, s interface{ Ports() []string }) error {
	ports := s.Ports()
	covered := make(map[string]int)
	for _, port := range ports {
		covered[port]++
	}
	for _, port := range p.InPorts {
		switch covered[port] {
		case 0:
			return fmt.Errorf("processor %s: input port %q not covered by iteration strategy", p.Name, port)
		case 1:
		default:
			return fmt.Errorf("processor %s: input port %q appears %d times in iteration strategy",
				p.Name, port, covered[port])
		}
		delete(covered, port)
	}
	for _, port := range ports {
		if _, unknown := covered[port]; unknown {
			return fmt.Errorf("processor %s: iteration strategy references unknown port %q", p.Name, port)
		}
	}
	return nil
}

// HasCycle reports whether the combined data-link and constraint graph
// contains a cycle. Cycles are legal in service-based workflows (Fig. 2)
// but require streaming (service-parallel) execution and make static
// analyses inapplicable.
func (w *Workflow) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(w.procs))
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = gray
		for _, succ := range w.Successors(n) {
			switch color[succ] {
			case gray:
				return true
			case white:
				if visit(succ) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, n := range w.order {
		if color[n] == white && visit(n) {
			return true
		}
	}
	return false
}

func errCycle(w *Workflow) error {
	return fmt.Errorf("workflow %s: graph has a cycle", w.Name)
}

// TopoOrder returns processor names in a topological order of the combined
// data-link and constraint graph. It fails if the graph has a cycle.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(w.procs))
	for _, n := range w.order {
		indeg[n] = len(w.Predecessors(n))
	}
	// Kahn's algorithm with insertion-order tie-breaking for determinism.
	var queue []string
	for _, n := range w.order {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	var out []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, succ := range w.Successors(n) {
			// Successors may repeat across ports; Predecessors deduplicates,
			// so decrement once per distinct edge.
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(out) != len(w.procs) {
		return nil, errCycle(w)
	}
	return out, nil
}

// CriticalPathLength returns nW: the number of service processors on the
// longest source-to-sink path (sources and sinks excluded), the quantity
// the paper's model calls the number of services on the critical path.
func (w *Workflow) CriticalPathLength() (int, error) {
	topo, err := w.TopoOrder()
	if err != nil {
		return 0, err
	}
	weight := func(n string) int {
		if w.procs[n].Kind == KindService {
			return 1
		}
		return 0
	}
	longest := make(map[string]int, len(topo))
	best := 0
	for _, n := range topo {
		l := 0
		for _, pred := range w.Predecessors(n) {
			if longest[pred] > l {
				l = longest[pred]
			}
		}
		longest[n] = l + weight(n)
		if longest[n] > best {
			best = longest[n]
		}
	}
	return best, nil
}

// Ancestors returns every processor from which name is reachable through
// data links or constraints (name excluded). Works on cyclic graphs.
func (w *Workflow) Ancestors(name string) map[string]bool {
	out := make(map[string]bool)
	var visit func(string)
	visit = func(n string) {
		for _, pred := range w.Predecessors(n) {
			if !out[pred] {
				out[pred] = true
				visit(pred)
			}
		}
	}
	visit(name)
	delete(out, name)
	return out
}

// ExpectedCounts computes, for an acyclic workflow without conditional
// outputs, how many invocations each processor performs and how many items
// each port carries, given the source item counts. Synchronization
// processors count as a single invocation. Used by the barrier (no
// service-parallelism) execution mode and by the theoretical model.
func (w *Workflow) ExpectedCounts(sourceCounts map[string]int) (map[string]int, error) {
	topo, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	inv := make(map[string]int, len(topo))
	for _, n := range topo {
		p := w.procs[n]
		switch p.Kind {
		case KindSource:
			c, ok := sourceCounts[n]
			if !ok {
				return nil, fmt.Errorf("workflow %s: no input data for source %s", w.Name, n)
			}
			inv[n] = c
		case KindSink, KindService:
			in := w.Incoming(n)
			portCounts := make(map[string]int, len(p.InPorts))
			for _, port := range p.InPorts {
				total := 0
				for _, l := range in[port] {
					total += inv[l.FromProc] // one item per invocation per out port
				}
				portCounts[port] = total
			}
			if p.Synchronization {
				inv[n] = 1
				continue
			}
			if p.Kind == KindSink {
				inv[n] = portCounts[SinkPort]
				continue
			}
			inv[n] = w.EffectiveStrategy(p).Count(portCounts)
		}
	}
	return inv, nil
}
