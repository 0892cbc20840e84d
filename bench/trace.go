package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Span names: one per layer boundary the benchmark wraps from outside.
const (
	spanCompile  = "scenario.compile"
	spanBuild    = "bronze.build"
	spanStart    = "campaign.start"
	spanReport   = "campaign.report"
	spanSteps    = "sim.steps"
	spanSubmit   = "federation.submit"
	spanCallback = "core.callback"
)

// stepsPerSpan is how many engine steps one sim.steps span covers.
const stepsPerSpan = 4096

// span is one timed call into a layer. Times are wall offsets from the
// recorder's origin. Spans of one job share the tenant and the record ID
// of the job's first attempt.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into recorder.spans, -1 for a root
	tenant     string
	job        int
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	calls int
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
}

// recorder keeps the spans of one traced repetition in memory. It is used
// from one goroutine at a time: the engine's control flow, which for the
// daemon is its driver goroutine, handed over by daemon.Start and back by
// daemon.Stop.
type recorder struct {
	origin      time.Time
	spans       []span
	open        []int           // stack of open span indices
	childTime   []time.Duration // per open span: time covered by its children
	totals      map[string]*layerTotal
	pendingPeak int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), totals: make(map[string]*layerTotal)}
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name, tenant string, job int) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent, tenant: tenant, job: job})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	r.childTime = append(r.childTime, 0)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	n := len(r.open)
	if n == 0 || r.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %q closed out of order", r.spans[i].name))
	}
	s := &r.spans[i]
	s.end = time.Since(r.origin)
	d := s.end - s.start
	t := r.totals[s.name]
	if t == nil {
		t = &layerTotal{}
		r.totals[s.name] = t
	}
	t.calls++
	t.total += d
	t.self += d - r.childTime[n-1]
	r.open, r.childTime = r.open[:n-1], r.childTime[:n-1]
	if n > 1 {
		r.childTime[n-2] += d
	}
}

// within runs fn inside a span; a nil recorder runs it untimed.
func within(r *recorder, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	i := r.begin(name, "", 0)
	fn()
	r.end(i)
}

func (r *recorder) total(name string) layerTotal {
	if t := r.totals[name]; t != nil {
		return *t
	}
	return layerTotal{}
}

// step drives the engine exactly as the untraced loop `for !done() &&
// eng.Step() {}` does, in sim.steps spans of stepsPerSpan steps, sampling
// the pending-event count at every span boundary.
func (r *recorder) step(eng *sim.Engine, done func() bool) {
	for {
		i := r.begin(spanSteps, "", 0)
		n := 0
		for n < stepsPerSpan && !done() && eng.Step() {
			n++
		}
		if p := eng.Pending(); p > r.pendingPeak {
			r.pendingPeak = p
		}
		r.end(i)
		if n < stepsPerSpan {
			return
		}
	}
}

// submit times one Submit into the infrastructure behind s, and the job's
// completion callback — the enactor's reaction, including any nested
// submissions it makes — when it fires later in virtual time.
func (r *recorder) submit(s services.Submitter, tenant string, spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	first := 0
	i := r.begin(spanSubmit, tenant, 0)
	rec := s.Submit(spec, func(final *grid.JobRecord) {
		c := r.begin(spanCallback, tenant, first)
		done(final)
		r.end(c)
	})
	first = rec.ID
	r.spans[i].job = first
	r.end(i)
	return rec
}

// tracedHandle is a campaign tenant handle whose submissions are timed.
type tracedHandle struct {
	campaign.Handle
	rec *recorder
}

func (h *tracedHandle) Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	return h.rec.submit(h.Handle, h.Name(), spec, done)
}

// tracedSubmitter is a bare submitter (a single grid) whose submissions
// are timed.
type tracedSubmitter struct {
	services.Submitter
	rec *recorder
}

func (t *tracedSubmitter) Submit(spec grid.JobSpec, done func(*grid.JobRecord)) *grid.JobRecord {
	return t.rec.submit(t.Submitter, "", spec, done)
}

// traceTenants makes every tenant build its workflow on a timed handle,
// so the wrapper services it creates submit through the recorder. The
// campaign itself keeps the untimed handle for its accounting, so the
// run's outcome is unchanged.
func traceTenants(tenants []campaign.TenantSpec, rec *recorder) {
	for i := range tenants {
		build := tenants[i].Build
		tenants[i].Build = func(h campaign.Handle) (*workflow.Workflow, map[string][]string, error) {
			return build(&tracedHandle{Handle: h, rec: rec})
		}
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds), which chrome://tracing and Perfetto open.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		args := map[string]any{"parent": s.parent}
		if s.tenant != "" {
			args["tenant"] = s.tenant
		}
		if s.job != 0 {
			args["job"] = s.job
		}
		a, err := json.Marshal(args)
		if err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":%s}`,
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, a)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
