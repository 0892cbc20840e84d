package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/provenance"
	"repro/internal/sim"
)

// Invocation is one trace entry: a single service invocation with its
// timing and the grid job behind it.
type Invocation struct {
	Processor string
	Index     []int
	Sync      bool
	Ready     sim.Time // input tuple complete, queued for admission
	Started   sim.Time // service invoked
	Finished  sim.Time
	Job       *grid.JobRecord // nil when no grid job ran it; shared by a batch
	Err       error
}

// Key returns the invocation's index key.
func (i *Invocation) Key() string { return provenance.Key(i.Index) }

// Wait returns how long the tuple waited for admission (gates, caps).
func (i *Invocation) Wait() time.Duration { return time.Duration(i.Started - i.Ready) }

// Span returns the invocation's service time.
func (i *Invocation) Span() time.Duration { return time.Duration(i.Finished - i.Started) }

// Trace is the complete execution record, in invocation start order.
type Trace struct {
	Invocations []*Invocation
}

// ByProcessor returns the invocations of one processor, in start order.
func (t *Trace) ByProcessor(name string) []*Invocation {
	var out []*Invocation
	for _, inv := range t.Invocations {
		if inv.Processor == name {
			out = append(out, inv)
		}
	}
	return out
}

// Processors returns the distinct processor names appearing in the trace,
// sorted.
func (t *Trace) Processors() []string {
	set := make(map[string]bool)
	for _, inv := range t.Invocations {
		set[inv.Processor] = true
	}
	out := make([]string, 0, len(set))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// JobCount returns the total number of grid job submissions (including
// resubmissions after failures) behind the trace, each job counted once.
func (t *Trace) JobCount() int {
	n := 0
	for _, j := range t.Jobs() {
		n += j.Attempts
	}
	return n
}

// Jobs returns the grid job records behind the trace, each once, in
// invocation start order. The members of a batch share one record and are
// recorded consecutively, so a repeat is always the previous entry's.
func (t *Trace) Jobs() []*grid.JobRecord {
	var out []*grid.JobRecord
	var prev *grid.JobRecord
	for _, inv := range t.Invocations {
		if inv.Job != nil && inv.Job != prev {
			out = append(out, inv.Job)
		}
		prev = inv.Job
	}
	return out
}

// Result is the outcome of one workflow execution.
type Result struct {
	// Makespan is the total execution time Σ of the workflow.
	Makespan time.Duration
	// Options records the optimization configuration used.
	Options Options
	// Outputs holds, per sink, the collected values sorted by index key —
	// identical across optimization configurations by construction.
	Outputs map[string][]string
	// Items holds the sink items with full provenance.
	Items map[string][]*provenance.Item
	// Trace is the execution record.
	Trace *Trace
}

// Summary renders a short human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "configuration %s: makespan %v, %d invocations\n",
		r.Options, r.Makespan.Round(time.Second), len(r.Trace.Invocations))
	for _, name := range r.Trace.Processors() {
		invs := r.Trace.ByProcessor(name)
		var wait, span time.Duration
		for _, inv := range invs {
			wait += inv.Wait()
			span += inv.Span()
		}
		n := time.Duration(len(invs))
		fmt.Fprintf(&b, "  %-28s %4d invocations, mean wait %v, mean service %v\n",
			name, len(invs), (wait / n).Round(time.Second), (span / n).Round(time.Second))
	}
	sinks := make([]string, 0, len(r.Outputs))
	//moteur:orderinvariant keys are sorted immediately after collection
	for s := range r.Outputs {
		sinks = append(sinks, s)
	}
	sort.Strings(sinks)
	for _, s := range sinks {
		fmt.Fprintf(&b, "  sink %-23s %4d items\n", s, len(r.Outputs[s]))
	}
	return b.String()
}
