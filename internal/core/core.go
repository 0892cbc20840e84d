// Package core implements MOTEUR, the paper's optimized service-based
// workflow enactor (Sec. 3–4): it executes a workflow over an input data
// set, exploiting every applicable level of parallelism —
//
//   - workflow parallelism (always on): independent branches of the graph
//     progress concurrently;
//   - data parallelism (DP): a service processes several data items
//     concurrently on distinct grid resources;
//   - service parallelism (SP): different services process different data
//     items concurrently (pipelining); with SP off, execution is
//     batch-synchronized per stage, as in pre-streaming enactors;
//   - job grouping (JG): sequential wrapper-backed processors are fused
//     into single grid jobs (see AutoGroup).
//
// The enactor runs inside the discrete-event simulation: service calls are
// asynchronous (Sec. 3.1) and completions arrive as events in virtual
// time, so runs are deterministic per seed and a full-scale experiment
// executes in milliseconds of wall time.
//
// The control loop is dirty-set driven (see DESIGN.md): a completion
// re-evaluates only the gates and queues of the processors whose state it
// could have changed — the finishing processor itself, the consumers it
// delivered to, and (once it drains) its successors and constraint
// dependents — instead of sweeping the whole graph after every event. New
// resolves the workflow graph once into direct per-processor state
// pointers, so no per-event code queries the workflow.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/arena"
	"repro/internal/iterstrat"
	"repro/internal/provenance"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Options selects the optimization levels for one execution.
type Options struct {
	// DataParallelism allows a service to run many invocations at once.
	DataParallelism bool
	// ServiceParallelism streams items between services as they are
	// produced. When false, a processor may not start until every direct
	// predecessor has finished its complete input set.
	ServiceParallelism bool
	// JobGrouping fuses eligible sequential wrapper chains (AutoGroup)
	// before execution.
	JobGrouping bool
	// MaxConcurrent caps concurrent invocations per service when
	// DataParallelism is on (0 = unlimited).
	MaxConcurrent int
	// DataGroupSize batches up to this many ready invocations of one
	// wrapper-backed service into a single grid job (0 or 1 disables).
	// This is the paper's future-work optimization (Sec. 5.4): "grouping
	// jobs of a single service, thus finding a trade-off between data
	// parallelism and the system's overhead". Larger batches pay fewer
	// per-job overheads but expose less data parallelism; the ablation
	// benchmarks sweep the trade-off.
	DataGroupSize int
	// DataGroupWindow is how long an under-filled batch waits for more
	// items before submitting anyway. Zero batches only simultaneously
	// ready items, which under streaming (service parallelism) catches
	// little beyond the first stage; a window of a fraction of the grid
	// overhead lets downstream services accumulate batches too.
	DataGroupWindow time.Duration
}

// String names the configuration the way the paper does (NOP, DP, SP, JG
// and their combinations).
func (o Options) String() string {
	s := ""
	if o.ServiceParallelism {
		s += "SP+"
	}
	if o.DataParallelism {
		s += "DP+"
	}
	if o.JobGrouping {
		s += "JG+"
	}
	if s == "" {
		return "NOP"
	}
	return s[:len(s)-1]
}

// ErrStalled reports an execution that stopped making progress before
// completing: typically a cyclic workflow run without service parallelism,
// or a conditional output starving a barrier.
var ErrStalled = errors.New("core: workflow execution stalled")

// Enactor executes one workflow on one engine. Create a fresh Enactor per
// execution.
type Enactor struct {
	eng  *sim.Engine
	wf   *workflow.Workflow
	opts Options

	tracker *provenance.Tracker
	procs   map[string]*procState
	states  []*procState // insertion order; procState.index indexes this
	trace   *Trace

	capLimit int // admission cap per processor, from opts
	active   int // queued tuples + in-flight invocations
	done     bool
	failure  error
	start    sim.Time // virtual instant Start was called
	finish   sim.Time

	// Asynchronous completion (Start): notify fires exactly once when the
	// run completes or fails; notified guards against late completions of
	// in-flight invocations after a failure was already reported.
	started  bool
	notify   func(*Result, error)
	notified bool

	// dirty holds the indices of processors whose gate or queue must be
	// re-evaluated at the next flush; procState.dirty guards duplicates,
	// flushing guards reentrancy (a service completing synchronously would
	// otherwise re-enter flushDirty from inside pumpProc).
	dirty    []int
	flushing bool
	syncs    []*procState // synchronization processors, insertion order

	invs     arena.Chunked[Invocation]       // trace entries
	items    arena.Chunked[*provenance.Item] // invocation input sets, then their outputs' Inputs
	freeMaps []map[string]string             // recycled request-input maps
}

type readyTuple struct {
	tuple iterstrat.Tuple // Items in strategy port order
	ready sim.Time
}

// tupleQueue is a FIFO of ready tuples backed by a reusable slice: pops
// advance a head index instead of re-slicing, and the buffer is compacted
// once the dead prefix dominates, so steady-state queue churn allocates
// nothing.
type tupleQueue struct {
	buf  []readyTuple
	head int
}

func (q *tupleQueue) len() int { return len(q.buf) - q.head }

func (q *tupleQueue) push(rt readyTuple) { q.buf = append(q.buf, rt) }

// pop removes and returns the front tuple. Popped slots are not zeroed:
// everything a tuple references (items, index vectors) stays reachable
// through the provenance tracker and trace for the rest of the run anyway,
// and the slot is overwritten on reuse.
func (q *tupleQueue) pop() readyTuple {
	rt := q.buf[q.head]
	q.head++
	q.maybeReset()
	return rt
}

// window returns the next n tuples without popping them; the view is
// invalidated by the next queue operation.
func (q *tupleQueue) window(n int) []readyTuple { return q.buf[q.head : q.head+n] }

// discard pops the next n tuples (previously read through window).
func (q *tupleQueue) discard(n int) {
	q.head += n
	q.maybeReset()
}

func (q *tupleQueue) maybeReset() {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// route is one precomputed delivery edge: where items emitted on an output
// port go.
type route struct {
	dst    *procState
	toPort string
}

type procState struct {
	p     *workflow.Processor
	index int                // position in Enactor.states (insertion order)
	strat iterstrat.Strategy // private clone; nil for sources, sinks, sync

	queue    tupleQueue
	inFlight int
	finished int
	expected int  // static invocation count; math.MaxInt when unknown
	open     bool // admission allowed (barrier/constraint gate)
	dirty    bool // queued in Enactor.dirty

	// Graph views resolved to state pointers (built once in New):
	routes            map[string][]route // out port → consumers, link order
	ports             []string           // input ports, sorted (request order)
	constraintBefores []*procState       // Before of each constraint gating this proc
	allPreds          []*procState       // distinct data+constraint predecessors
	downstream        []*procState       // distinct successors + constraint dependents
	syncAncestors     []*procState       // synchronization processors among ancestors
	batchCap          int                // data-grouping batch size (1 = no batching)
	wrapper           *services.Wrapper  // non-nil for wrapper-backed services
	fastSingle        bool               // strategy is a bare leaf; bypass Offer
	// perm[i] is the position of ports[i] in strat.Ports(); nil when the
	// two orders agree.
	perm []int

	syncFired   bool
	syncBuf     map[string][]*provenance.Item // sync procs: per-port arrivals
	flush       *sim.Event                    // pending batch-window flush
	flushForced bool                          // window expired: submit short batches

	collected []*provenance.Item // sinks: arrivals
}

// New prepares an enactor. With JobGrouping set, the workflow is first
// rewritten by AutoGroup; the original workflow is not modified.
func New(eng *sim.Engine, wf *workflow.Workflow, opts Options) (*Enactor, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	if opts.JobGrouping {
		grouped, err := AutoGroup(wf)
		if err != nil {
			return nil, err
		}
		wf = grouped
	}
	if !opts.ServiceParallelism && wf.HasCycle() {
		return nil, fmt.Errorf("core: workflow %s has loops, which require service parallelism (streaming)", wf.Name)
	}
	e := &Enactor{
		eng:      eng,
		wf:       wf,
		opts:     opts,
		tracker:  provenance.NewTracker(),
		procs:    make(map[string]*procState),
		trace:    &Trace{},
		capLimit: admissionCap(opts),
	}
	for i, p := range wf.Processors() {
		st := &procState{p: p, index: i, open: true, expected: math.MaxInt, batchCap: 1}
		if p.Kind == workflow.KindService && !p.Synchronization {
			st.strat = iterstrat.Clone(wf.EffectiveStrategy(p))
			// A bare single-port leaf is a stateless pass-through: deliver
			// can turn the item into a ready tuple without the Offer
			// machinery.
			_, st.fastSingle = iterstrat.SinglePort(st.strat)
		}
		if p.Synchronization {
			st.syncBuf = make(map[string][]*provenance.Item)
			e.syncs = append(e.syncs, st)
		}
		st.ports = append([]string(nil), p.InPorts...)
		sort.Strings(st.ports)
		if st.strat != nil {
			st.perm = portPerm(st.ports, st.strat)
		}
		if w, ok := p.Service.(*services.Wrapper); ok {
			st.wrapper = w
			if opts.DataGroupSize > 1 && opts.DataParallelism {
				st.batchCap = opts.DataGroupSize
			}
		}
		e.procs[p.Name] = st
		e.states = append(e.states, st)
	}
	// Second pass: resolve the graph to direct state pointers so the hot
	// path never touches a map or rescans links.
	for _, st := range e.states {
		name := st.p.Name
		for _, l := range wf.Outgoing(name) {
			if st.routes == nil {
				st.routes = make(map[string][]route)
			}
			st.routes[l.FromPort] = append(st.routes[l.FromPort], route{e.procs[l.ToProc], l.ToPort})
		}
		for _, c := range wf.Constraints {
			if c.After == name {
				st.constraintBefores = append(st.constraintBefores, e.procs[c.Before])
			}
		}
		for _, pn := range wf.Predecessors(name) {
			st.allPreds = append(st.allPreds, e.procs[pn])
		}
		for _, sn := range wf.Successors(name) {
			st.downstream = append(st.downstream, e.procs[sn])
		}
		if st.p.Synchronization {
			// Ancestors returns a set; iterate it in sorted order so the
			// syncAncestors slice is identical across runs even if a
			// future consumer becomes order-sensitive.
			set := wf.Ancestors(name)
			ancs := make([]string, 0, len(set))
			//moteur:orderinvariant keys are sorted immediately after collection
			for anc := range set {
				ancs = append(ancs, anc)
			}
			sort.Strings(ancs)
			for _, anc := range ancs {
				if a := e.procs[anc]; a.p.Synchronization {
					st.syncAncestors = append(st.syncAncestors, a)
				}
			}
		}
	}
	return e, nil
}

// portPerm maps each request port to its position in the strategy's
// ports, so a tuple's positional Items are read in request order. It
// returns nil when the two orders agree. Every port is found: the
// workflow's Validate (run by New, and by AutoGroup on its rewrite)
// rejects a strategy that does not cover each input port exactly once.
func portPerm(ports []string, strat iterstrat.Strategy) []int {
	sp := strat.Ports()
	if slices.Equal(ports, sp) {
		return nil
	}
	perm := make([]int, len(ports))
	for i, port := range ports {
		perm[i] = slices.Index(sp, port)
	}
	return perm
}

func admissionCap(opts Options) int {
	if !opts.DataParallelism {
		return 1
	}
	if opts.MaxConcurrent > 0 {
		return opts.MaxConcurrent
	}
	return math.MaxInt
}

// Workflow returns the workflow actually executed (after grouping).
func (e *Enactor) Workflow() *workflow.Workflow { return e.wf }

// Options returns the enactor's current options, reflecting any mid-run
// SetDataGroupSize retuning.
func (e *Enactor) Options() Options { return e.opts }

// SetDataGroupSize retunes the per-service batching cap mid-run — the
// adaptive-granularity knob (Sec. 5.5: "an optimal strategy to adapt the
// jobs' granularity to the grid load"). Already-submitted batches are
// unaffected; tuples admitted from now on are batched up to k per grid
// job. As at construction, batching applies only to wrapper-backed
// services and requires data parallelism; k < 1 is treated as 1 (batching
// off). Safe to call at any time, including from a scheduled event while
// the run is in flight.
func (e *Enactor) SetDataGroupSize(k int) {
	if k < 1 {
		k = 1
	}
	e.opts.DataGroupSize = k
	cap := 1
	if k > 1 && e.opts.DataParallelism {
		cap = k
	}
	changed := false
	for _, st := range e.states {
		if st.wrapper == nil || st.batchCap == cap {
			continue
		}
		st.batchCap = cap
		e.markDirty(st)
		changed = true
	}
	// Before Start there is nothing to pump (and Start re-evaluates every
	// gate anyway); mid-run, queued tuples must be re-examined under the
	// new cap.
	if changed && e.started {
		e.flushDirty()
		e.checkQuiescence()
	}
}

// Progress reports how many service invocations have finished and how many
// the whole execution statically expects. known is false when the expected
// counts could not be derived (dynamic executions under service
// parallelism), in which case expected is meaningless.
func (e *Enactor) Progress() (finished, expected int, known bool) {
	known = e.started
	for _, st := range e.states {
		if st.p.Kind != workflow.KindService {
			continue
		}
		finished += st.finished
		if st.expected == math.MaxInt {
			known = false
			continue
		}
		expected += st.expected
	}
	return finished, expected, known
}

// Run executes the workflow on the inputs (source name → item values) and
// blocks, in wall time, until the virtual execution completes. It steps
// the engine itself; the caller must not run the engine concurrently.
func (e *Enactor) Run(inputs map[string][]string) (*Result, error) {
	var (
		res      *Result
		runErr   error
		finished bool
	)
	if err := e.Start(inputs, func(r *Result, err error) {
		res, runErr, finished = r, err, true
	}); err != nil {
		return nil, err
	}
	for !finished && e.eng.Step() {
	}
	if !finished {
		return nil, fmt.Errorf("%w: %s", ErrStalled, e.diagnose())
	}
	return res, runErr
}

// Start begins executing the workflow on the inputs without stepping the
// engine: source items are delivered at the current virtual instant and
// done fires exactly once, in virtual time, when the execution completes
// (with its Result) or fails. The caller drives the shared engine — this
// is how several enactors run concurrently on one grid (see
// internal/campaign). The returned error covers synchronous validation
// problems only; note that a trivially empty execution may complete (and
// invoke done) before Start returns.
func (e *Enactor) Start(inputs map[string][]string, done func(*Result, error)) error {
	if done == nil {
		return errors.New("core: Start with nil completion callback")
	}
	if e.started {
		return errors.New("core: enactor already started (create a fresh Enactor per execution)")
	}
	for _, src := range e.wf.Sources() {
		if _, ok := inputs[src.Name]; !ok {
			return fmt.Errorf("core: no input data for source %s", src.Name)
		}
	}
	if counts, err := e.wf.ExpectedCounts(countsOf(inputs)); err == nil {
		total := 0
		for _, st := range e.states {
			st.expected = counts[st.p.Name]
			if st.p.Kind == workflow.KindService {
				total += st.expected
			}
		}
		// The trace will hold one entry per invocation; reserving it up
		// front avoids repeatedly regrowing (and rescanning) a large
		// pointer slice.
		e.trace.Invocations = make([]*Invocation, 0, total)
	} else if !e.opts.ServiceParallelism {
		return fmt.Errorf("core: barrier execution needs static invocation counts: %w", err)
	}
	e.started = true
	e.notify = done
	e.start = e.eng.Now()

	// Data sources deliver their items sequentially at the start instant
	// (Sec. 2.2; t=0 for a solo Run).
	for _, src := range e.wf.Sources() {
		st := e.procs[src.Name]
		for i, v := range inputs[src.Name] {
			item := e.tracker.Source(src.Name, i, v)
			e.deliver(st, workflow.SourcePort, item)
		}
		st.finished = len(inputs[src.Name])
	}
	// Every gate and queue gets one full evaluation to start; after this,
	// only dirty processors are revisited.
	for _, st := range e.states {
		e.markDirty(st)
	}
	e.flushDirty()
	e.checkQuiescence()
	return nil
}

// finishNotify delivers the terminal outcome to the Start callback, once.
func (e *Enactor) finishNotify() {
	if e.notified || e.notify == nil {
		return
	}
	if e.failure != nil {
		e.notified = true
		e.notify(nil, e.failure)
		return
	}
	if e.done {
		e.notified = true
		e.notify(e.result(), nil)
	}
}

func countsOf(inputs map[string][]string) map[string]int {
	out := make(map[string]int, len(inputs))
	//moteur:orderinvariant map-to-map rebuild keyed by the same keys, no order leak
	for k, v := range inputs {
		out[k] = len(v)
	}
	return out
}

// deliver routes one item emitted on st's output port to every consumer,
// via the precomputed routing table.
func (e *Enactor) deliver(st *procState, port string, item *provenance.Item) {
	for _, r := range st.routes[port] {
		dst := r.dst
		switch {
		case dst.p.Kind == workflow.KindSink:
			dst.collected = append(dst.collected, item)
		case dst.p.Synchronization:
			dst.syncBuf[r.toPort] = append(dst.syncBuf[r.toPort], item)
		case dst.fastSingle:
			// Exactly what a leaf Offer would emit: one tuple keyed by the
			// item's own index. Its one-item input set comes from the
			// arena, since a leaf reuses its own.
			items := e.items.Slice(1)
			items[0] = item
			dst.queue.push(readyTuple{
				tuple: iterstrat.Tuple{Index: item.Index, Items: items},
				ready: e.eng.Now(),
			})
			e.active++
			e.markDirty(dst)
		default:
			tuples := dst.strat.Offer(r.toPort, item)
			if len(tuples) == 0 {
				continue
			}
			now := e.eng.Now()
			for _, tup := range tuples {
				dst.queue.push(readyTuple{tuple: tup, ready: now})
				e.active++
			}
			e.markDirty(dst)
		}
	}
}

// markDirty queues a processor for gate/queue re-evaluation at the next
// flushDirty.
func (e *Enactor) markDirty(st *procState) {
	if !st.dirty {
		st.dirty = true
		e.dirty = append(e.dirty, st.index)
	}
}

// flushDirty re-evaluates the admission gate and pumps the queue of every
// dirty processor, in workflow insertion order — the same order the
// previous full-sweep implementation used, so admission sequences (and
// with them event ordering and traces) are unchanged. Processors that are
// not dirty cannot have admissible work: their queues, gates, and
// capacity are untouched since their last evaluation.
func (e *Enactor) flushDirty() {
	if e.flushing || len(e.dirty) == 0 {
		return
	}
	e.flushing = true
	// Marks appended mid-flush (by a service whose done callback runs
	// synchronously inside pumpProc) extend the loop: each chunk is sorted
	// and processed, then any newly appended chunk follows.
	for pos := 0; pos < len(e.dirty); {
		sort.Ints(e.dirty[pos:])
		end := len(e.dirty)
		for ; pos < end; pos++ {
			st := e.states[e.dirty[pos]]
			st.dirty = false
			if st.p.Kind == workflow.KindService {
				st.open = e.gateOpen(st)
			}
			e.pumpProc(st)
		}
	}
	e.dirty = e.dirty[:0]
	e.flushing = false
}

// gateOpen recomputes one admission gate. With service parallelism the
// gate is only closed by coordination constraints; without it, a processor
// also waits for all its direct predecessors to drain (batch semantics).
func (e *Enactor) gateOpen(st *procState) bool {
	for _, b := range st.constraintBefores {
		if !e.drained(b) {
			return false
		}
	}
	if !e.opts.ServiceParallelism {
		for _, pred := range st.allPreds {
			if !e.drained(pred) {
				return false
			}
		}
	}
	return true
}

// drained reports whether a processor has completed its whole input set.
// It needs static counts; sources are drained once delivered.
func (e *Enactor) drained(st *procState) bool {
	if st.p.Kind == workflow.KindSource {
		return st.finished > 0 || st.expected == 0
	}
	if st.inFlight > 0 || st.queue.len() > 0 {
		return false
	}
	return st.finished >= st.expected
}

// pumpProc admits the processor's queued tuples wherever its gate and cap
// allow.
func (e *Enactor) pumpProc(st *procState) {
	if e.failure != nil {
		// Dead executions admit nothing: complete() already stops output
		// delivery, but a pending DataGroupWindow flush timer can still
		// reach here after the failure and must not submit held batches.
		return
	}
	for st.open && st.queue.len() > 0 && st.inFlight < e.capLimit {
		if batch := st.batchCap; batch > 1 {
			if st.queue.len() < batch && e.opts.DataGroupWindow > 0 && !st.flushForced {
				// Under-filled batch: hold the queue briefly so more
				// items can join, then submit whatever accumulated.
				if st.flush == nil {
					st.flush = e.eng.Schedule(e.opts.DataGroupWindow, func() {
						st.flush = nil
						st.flushForced = true
						e.markDirty(st)
						e.flushDirty()
						st.flushForced = false
						e.checkQuiescence()
					})
				}
				break
			}
			n := batch
			if n > st.queue.len() {
				n = st.queue.len()
			}
			if st.flush != nil {
				st.flush.Cancel()
				st.flush = nil
			}
			e.invokeBatch(st, n)
			continue
		}
		rt := st.queue.pop()
		e.invoke(st, rt)
	}
}

// newInvocation allocates a trace entry from the chunked arena.
func (e *Enactor) newInvocation() *Invocation { return e.invs.New() }

// invokeBatch starts one grid job covering the next n queued invocations.
func (e *Enactor) invokeBatch(st *procState, n int) {
	rts := st.queue.window(n)
	st.inFlight += n
	reqs := make([]services.Request, n)
	invs := make([]*Invocation, n)
	inputSets := make([][]*provenance.Item, n)
	now := e.eng.Now()
	for i, rt := range rts {
		inv := e.newInvocation()
		inv.Processor = st.p.Name
		inv.Index = rt.tuple.Index
		inv.Ready = rt.ready
		inv.Started = now
		e.trace.Invocations = append(e.trace.Invocations, inv)
		invs[i] = inv
		reqs[i], inputSets[i] = e.buildRequest(st, rt)
	}
	st.queue.discard(n)
	st.wrapper.InvokeBatch(reqs, func(resps []services.Response) {
		for i, resp := range resps {
			e.complete(st, invs[i], inputSets[i], resp)
			e.releaseInputs(reqs[i].Inputs)
		}
	})
}

// invoke starts one service invocation for a completed tuple.
func (e *Enactor) invoke(st *procState, rt readyTuple) {
	st.inFlight++
	inv := e.newInvocation()
	inv.Processor = st.p.Name
	inv.Index = rt.tuple.Index
	inv.Ready = rt.ready
	inv.Started = e.eng.Now()
	e.trace.Invocations = append(e.trace.Invocations, inv)
	req, inputItems := e.buildRequest(st, rt)
	st.p.Service.Invoke(req, func(resp services.Response) {
		e.complete(st, inv, inputItems, resp)
		// Services must not retain req.Inputs past their completion
		// callback (they consume the bindings at submit/run time), so the
		// map can be recycled for a later invocation.
		e.releaseInputs(req.Inputs)
	})
}

// newInputs pops a recycled request-input map or allocates one.
func (e *Enactor) newInputs(size int) map[string]string {
	if n := len(e.freeMaps); n > 0 {
		m := e.freeMaps[n-1]
		e.freeMaps[n-1] = nil
		e.freeMaps = e.freeMaps[:n-1]
		return m
	}
	return make(map[string]string, size)
}

func (e *Enactor) releaseInputs(m map[string]string) {
	clear(m)
	e.freeMaps = append(e.freeMaps, m)
}

// buildRequest assembles the service request for one tuple: port values in
// the precomputed deterministic port order plus the processor's constant
// bindings.
func (e *Enactor) buildRequest(st *procState, rt readyTuple) (services.Request, []*provenance.Item) {
	req := services.Request{Index: rt.tuple.Index, Inputs: e.newInputs(len(st.ports) + len(st.p.Constants))}
	// The tuple's Items are its own (handed over by the strategy, or
	// taken from the arena on the fast path), so in request order they
	// are the input set as they stand.
	inputItems := rt.tuple.Items
	if st.perm != nil {
		inputItems = e.items.Slice(len(st.ports))
		for i, p := range st.perm {
			inputItems[i] = rt.tuple.Items[p]
		}
	}
	for i, port := range st.ports {
		req.Inputs[port] = inputItems[i].Value
	}
	//moteur:orderinvariant distinct constant keys write disjoint map slots, no order leak
	for k, v := range st.p.Constants {
		req.Inputs[k] = v
	}
	return req, inputItems
}

// complete finishes one invocation: trace, output delivery, dirty-set
// propagation, and quiescence detection.
func (e *Enactor) complete(st *procState, inv *Invocation, inputs []*provenance.Item, resp services.Response) {
	st.inFlight--
	st.finished++
	e.active--
	inv.Finished = e.eng.Now()
	inv.Job = resp.Job
	inv.Err = resp.Err
	if resp.Err != nil && e.failure == nil {
		e.failure = fmt.Errorf("core: processor %s: %w", st.p.Name, resp.Err)
		e.finishNotify()
		return
	}
	if e.failure != nil {
		// The run already failed; in-flight invocations still drain (their
		// completions arrive as events on a possibly shared engine), but
		// their outputs must not propagate — delivering would pump fresh
		// invocations and keep a dead execution submitting jobs that
		// contend with live ones.
		return
	}
	for _, port := range st.p.OutPorts {
		v, emitted := resp.Outputs[port]
		if !emitted {
			continue // conditional output (Fig. 2 loops)
		}
		item := e.tracker.Derive(st.p.Name, port, v, inv.Index, inputs...)
		e.deliver(st, port, item)
	}
	// The finishing processor freed a capacity slot; if it just drained,
	// the gates of its successors and constraint dependents may now open.
	e.markDirty(st)
	if e.drained(st) {
		for _, d := range st.downstream {
			e.markDirty(d)
		}
	}
	e.flushDirty()
	e.checkQuiescence()
}

// checkQuiescence fires synchronization processors once all their
// ancestors are inactive (Sec. 4.2: "it must be enacted once every of its
// ancestors is inactive"), and declares the run complete when nothing is
// left to do.
func (e *Enactor) checkQuiescence() {
	// An enactor that has not started has no work by construction; without
	// the guard, a pre-Start SetDataGroupSize would declare the run done
	// (or fire sync processors on empty inputs) before any input arrives.
	if !e.started || e.done || e.failure != nil || e.active > 0 {
		return
	}
	fired := false
	for _, st := range e.syncs {
		if st.syncFired {
			continue
		}
		// A sync processor whose ancestors include a sync processor that
		// has not fired *and completed* waits for the inner barrier first.
		blocked := false
		for _, a := range st.syncAncestors {
			if !a.syncFired || a.inFlight > 0 {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		e.fireSync(st)
		fired = true
	}
	if fired {
		return
	}
	e.done = true
	e.finish = e.eng.Now()
	e.finishNotify()
}

// fireSync invokes a synchronization processor once, with the complete
// per-port item lists.
func (e *Enactor) fireSync(st *procState) {
	st.syncFired = true
	st.inFlight++
	e.active++
	inv := e.newInvocation()
	inv.Processor = st.p.Name
	inv.Index = []int{0}
	inv.Sync = true
	inv.Ready = e.eng.Now()
	inv.Started = e.eng.Now()
	e.trace.Invocations = append(e.trace.Invocations, inv)

	req := services.Request{
		Index:  []int{0},
		Inputs: make(map[string]string),
		Lists:  make(map[string][]string),
	}
	var inputs []*provenance.Item
	for _, port := range st.p.InPorts {
		items := st.syncBuf[port]
		vals := make([]string, len(items))
		for i, it := range items {
			vals[i] = it.Value
		}
		req.Lists[port] = vals
		if len(items) > 0 {
			req.Inputs[port] = items[0].Value // convenience binding
		}
		inputs = append(inputs, items...)
	}
	//moteur:orderinvariant distinct constant keys write disjoint map slots, no order leak
	for k, v := range st.p.Constants {
		req.Inputs[k] = v
	}
	st.p.Service.Invoke(req, func(resp services.Response) {
		e.complete(st, inv, inputs, resp)
	})
}

// diagnose describes why execution stalled.
func (e *Enactor) diagnose() string {
	for _, st := range e.states {
		if st.queue.len() > 0 || st.inFlight > 0 {
			return fmt.Sprintf("processor %s has %d queued tuples and %d in-flight invocations (gate open: %v)",
				st.p.Name, st.queue.len(), st.inFlight, st.open)
		}
	}
	return "no pending work but completion was not detected"
}

// result assembles the Result after completion.
func (e *Enactor) result() *Result {
	r := &Result{
		Makespan: time.Duration(e.finish - e.start),
		Options:  e.opts,
		Outputs:  make(map[string][]string),
		Items:    make(map[string][]*provenance.Item),
		Trace:    e.trace,
	}
	for _, sink := range e.wf.Sinks() {
		st := e.procs[sink.Name]
		// Decorate-sort-undecorate: index keys are rendered once per item,
		// not once per comparison, and the sort runs on a concrete type.
		ks := make(keyedItems, len(st.collected))
		for i, it := range st.collected {
			ks[i] = keyedItem{it.Key(), it}
		}
		sort.Sort(ks)
		items := make([]*provenance.Item, len(ks))
		vals := make([]string, len(ks))
		for i, k := range ks {
			items[i] = k.item
			vals[i] = k.item.Value
		}
		r.Outputs[sink.Name] = vals
		r.Items[sink.Name] = items
	}
	return r
}

type keyedItem struct {
	key  string
	item *provenance.Item
}

type keyedItems []keyedItem

func (s keyedItems) Len() int      { return len(s) }
func (s keyedItems) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s keyedItems) Less(i, j int) bool {
	if s[i].key != s[j].key {
		return s[i].key < s[j].key
	}
	return s[i].item.Value < s[j].item.Value
}
