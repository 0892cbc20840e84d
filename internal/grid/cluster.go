package grid

import (
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// cluster is one computing element: a FIFO batch queue in front of a pool
// of heterogeneous worker nodes, a shared transfer link to its close
// storage element, and an optional background (multi-user) load.
type cluster struct {
	g        *Grid
	cfg      ClusterConfig
	site     Site // the close SE's location: {grid name, cluster name}
	nodes    *sim.Resource
	link     *sim.Resource
	rnd      *rng.Source
	bgJobs   uint64 // background jobs started
	fgJobs   uint64 // foreground (workflow) attempts executed
	fgFailed uint64
	// remoteMB / remoteFetches account input bytes (and file fetches)
	// pulled over non-local links because no replica sat behind the close
	// SE — the per-cluster face of the WAN transfer model. wanWait
	// accumulates the time those fetches spent queued on contended WAN
	// channels before being granted (zero without a fabric).
	remoteMB      float64
	remoteFetches uint64
	wanWait       time.Duration
	// restages counts re-staging rounds: stage-in retries forced by a
	// replica source dark at leg start or dying mid-fetch (each round
	// re-plans against the surviving replicas after sim-time backoff).
	restages uint64
	// bgHorizon is the stop instant of the background load generator
	// (carried here so the arrival chain runs through package functions
	// instead of a recursive closure).
	bgHorizon time.Duration
	// bgDur is the background job duration distribution, solved when the
	// generator starts; a non-positive mean leaves the zero distribution,
	// whose jobs take no time.
	bgDur rng.LogNormal
}

func newCluster(g *Grid, cfg ClusterConfig, rnd *rng.Source) *cluster {
	if cfg.Nodes <= 0 {
		panic("grid: cluster with no nodes: " + cfg.Name)
	}
	streams := cfg.TransferStreams
	if streams <= 0 {
		streams = 1
	}
	return &cluster{
		g:     g,
		cfg:   cfg,
		site:  Site{Grid: g.cfg.Name, Cluster: cfg.Name},
		nodes: sim.NewResource(g.Eng, cfg.Nodes),
		link:  sim.NewResource(g.Eng, streams),
		rnd:   rnd,
	}
}

// rankFloor keeps the matchmaking perturbation alive on an idle grid: with
// a bare backlog×noise product every idle cluster would rank exactly 0.0
// and pickCluster's strict comparison would always select the first
// (largest) computing element. Adding the floor before scaling makes the
// idle-grid rank the noise itself, so idle clusters are picked uniformly,
// while under load the backlog term dominates as before.
const rankFloor = 0.05

// rank estimates how long a new job would wait here: queue backlog scaled
// by pool size, perturbed by the caller-provided noise factor, plus the
// data-proximity term — the estimated seconds of non-local input fetching
// the job would pay at this cluster, weighted by
// Config.DataProximityWeight. The proximity term is added after the noise
// so that clusters differing only in backlog keep their pre-locality
// ranking exactly (the estimate is a constant across clusters whenever the
// job's replicas are unplaced, local everywhere, or on another grid
// entirely — argmin unchanged).
func (c *cluster) rank(noise, fetchSeconds float64) float64 {
	backlog := float64(c.nodes.Waiting()+c.nodes.Busy()) / float64(c.cfg.Nodes)
	return (backlog+rankFloor)*noise + c.g.cfg.DataProximityWeight*fetchSeconds
}

// fetchEstimate returns the estimated seconds of non-local input fetching
// a job with these inputs would pay at this cluster — the data-proximity
// signal of the broker's cluster ranking. A plan with a missing input
// estimates zero rather than its partial sum: the job will fail at
// stage-in wherever it lands, so the partial cost must not steer the
// cluster choice.
func (c *cluster) fetchEstimate(inputs []string) float64 {
	if len(inputs) == 0 {
		return 0
	}
	p := c.g.catalog.Plan(inputs, c.site)
	if p.Missing != "" || p.Unavailable != "" {
		return 0
	}
	return p.RemoteTime.Seconds()
}

// enqueue places a job attempt in the batch queue. The attempt's
// subsequent lifecycle runs through package-level functions carrying the
// job's run, so queueing, dispatch, staging, and compute schedule without
// allocating per-event closures.
func (c *cluster) enqueue(run *jobRun) {
	run.rec.Status = StatusQueued
	c.nodes.AcquireArg(nodeGranted, run)
}

// nodeGranted runs when a worker node is granted: the LRMS dispatch
// overhead between node grant and process start begins.
func nodeGranted(x any) {
	run := x.(*jobRun)
	c := run.c
	c.fgJobs++
	run.rec.Status = StatusRunning
	run.rec.Started = c.g.Eng.Now()
	dispatch := c.g.drawOverhead(c.g.dispatchDur)
	c.g.Eng.ScheduleArg(dispatch, dispatchDone, run)
}

// dispatchDone runs when the LRMS dispatch overhead elapses: input staging
// starts on the worker node.
func dispatchDone(x any) {
	run := x.(*jobRun)
	run.c.stageIn(run)
}

// stageIn transfers the job's input files from the storage elements, then
// computes, then stages outputs back. The node is held throughout, as on
// LCG2 where the job wrapper performs staging on the worker node. For
// every input the cheapest replica under the catalog's link model is
// chosen; inputs local to this cluster's close SE move over the shared
// close-SE link exactly as the location-blind model moved everything,
// while non-local inputs are first fetched over their intra-grid/WAN
// links, serialized per job at the link's own bandwidth and per-file
// latency. Without a fabric the whole remote class is one pure delay;
// with one, the fetch walks its per-source-grid legs in order, each leg
// holding the (fromGrid, toGrid) channel for its fetch time, so
// concurrent remote fetches queue and the queueing is accounted as
// WANWait. When the plan has no remote class, the event schedule is
// bit-identical to the pre-locality one (no extra event is inserted), the
// backwards-compatibility invariant the single-grid goldens pin.
func (c *cluster) stageIn(run *jobRun) {
	if c.g.down {
		// The grid went dark while the attempt was being dispatched: it
		// fails before touching storage, like any stage-in failure.
		c.fgFailed++
		c.release(run, true)
		return
	}
	run.tries = 0
	c.stageAttempt(run)
}

// stageAttempt runs one re-staging round: re-plan against the replicas
// live right now, then fetch. run.tries counts the rounds already failed
// by this attempt; a retryable storage failure (source dark at leg start,
// source dying mid-fetch, or no live replica of an input at all) hands
// off to stageRetry, which backs off in sim time and re-plans, up to
// Config.StageRetries rounds.
func (c *cluster) stageAttempt(run *jobRun) {
	cat := c.g.catalog
	rec := run.rec
	if len(rec.Spec.Inputs) > 0 && cat.SiteDark(c.site) {
		// The close SE every input must land on is dark: nothing can be
		// staged here. Fail the attempt plainly (no terminal error) —
		// resubmission redraws the cluster, and a federation can move the
		// job off a storage-dark grid entirely.
		c.fgFailed++
		c.release(run, true)
		return
	}
	cat.stagePlanInto(&run.plan, rec.Spec.Inputs, c.site)
	plan := &run.plan
	if plan.Missing != "" {
		// A stage-in failure is a failed attempt like any other and
		// must show up in the per-cluster failure accounting.
		c.fgFailed++
		rec.Err = &FileError{Job: rec.Spec.Name, File: plan.Missing, Err: ErrNoSuchFile}
		c.release(run, true)
		return
	}
	if plan.Unavailable != "" {
		// Registered but no live replica anywhere: transient by default
		// (an SE outage may end), terminal ErrReplicaLost if it persists
		// through the whole retry budget.
		c.stageRetry(run, plan.Unavailable)
		return
	}
	rec.LocalInMB, rec.RemoteInMB = plan.LocalMB, plan.RemoteMB
	rec.RemoteFetch = plan.RemoteTime
	// Like the fields above, WANFetch and WANWait describe the last
	// round of the last attempt only: a re-staged or resubmitted job
	// starts its wait accounting over, so the observed/nominal stretch
	// telemetry compares like with like.
	rec.WANFetch, rec.WANWait = 0, 0
	if plan.RemoteFiles == 0 {
		c.stageLocal(run)
		return
	}
	c.remoteMB += plan.RemoteMB
	c.remoteFetches += uint64(plan.RemoteFiles)
	if cat.Fabric() == nil && !cat.storageActive() {
		// Location-aware but storage-passive configuration: the whole
		// remote class stays one pure delay — the exact event the
		// pre-storage model scheduled, which the goldens pin.
		c.g.Eng.ScheduleArg(plan.RemoteTime, remoteDelayDone, run)
		return
	}
	// Contended path: the legs run in plan order (lexical source grid),
	// serialized per job exactly like the pure-delay model, but each
	// cross-grid leg first waits for its pair channel. With free
	// channels the elapsed time degenerates to plan.RemoteTime and
	// WANWait stays zero. Same-grid legs (a remote intra-grid class) are
	// not WAN traffic: they keep the pure-delay cost, so intra-grid
	// congestion never occupies the WAN channels or inflates the
	// observed/nominal stretch the broker applies to cross-grid
	// estimates. Each leg checks its source sites' liveness twice — at
	// leg start (a source that went dark since planning serves nothing)
	// and at leg completion (a source dying mid-fetch truncates the
	// transfer) — and either failure re-stages from the survivors.
	run.leg = 0
	c.legNext(run)
}

// remoteDelayDone runs when the storage-passive remote class's pure delay
// elapses: the close-SE (local class) transfer starts.
func remoteDelayDone(x any) {
	run := x.(*jobRun)
	run.c.stageLocal(run)
}

// stageLocal moves the plan's local class over the close-SE link and
// proceeds to compute — the tail of every stage-in.
func (c *cluster) stageLocal(run *jobRun) {
	c.transferRun(run.plan.LocalMB, run.plan.LocalFiles, localInDone, run)
}

// localInDone runs when the close-SE transfer of the input's local class
// completes: staging is over and the compute phase starts.
func localInDone(x any, _ sim.Time) {
	run := x.(*jobRun)
	run.rec.InputDone = run.c.g.Eng.Now()
	run.c.compute(run)
}

// legNext starts the next remote leg of the contended stage-in walk, or —
// legs exhausted — the local class.
func (c *cluster) legNext(run *jobRun) {
	plan := &run.plan
	if run.leg == len(plan.Remote) {
		c.stageLocal(run)
		return
	}
	l := &plan.Remote[run.leg]
	run.leg++
	cat := c.g.catalog
	if cat.legDark(*l) {
		c.stageRetry(run, "")
		return
	}
	if cat.Fabric() == nil || l.FromGrid == c.site.Grid {
		c.g.Eng.ScheduleArg(l.Time, legDelayDone, run)
		return
	}
	run.rec.WANFetch += l.Time
	cat.Fabric().Channel(l.FromGrid, c.site.Grid).UseWaitArg(l.Time, legFabricDone, run)
}

// legDelayDone runs when an uncontended (intra-grid or fabric-less) leg's
// pure delay elapses.
func legDelayDone(x any) {
	run := x.(*jobRun)
	run.c.legAfter(run)
}

// legFabricDone runs when a cross-grid leg's channel hold completes: the
// queueing wait is accounted before the liveness re-check, exactly as the
// closure-based walk did.
func legFabricDone(x any, waited sim.Time) {
	run := x.(*jobRun)
	run.rec.WANWait += time.Duration(waited)
	run.c.wanWait += time.Duration(waited)
	run.c.legAfter(run)
}

// legAfter finishes one leg: re-check the just-fetched leg's sources (a
// source dying mid-fetch truncates the transfer, forcing a re-stage) and
// move on.
func (c *cluster) legAfter(run *jobRun) {
	l := run.plan.Remote[run.leg-1]
	if c.g.catalog.legDark(l) {
		c.stageRetry(run, "")
		return
	}
	c.legNext(run)
}

// stageRetry handles a retryable storage failure of round run.tries: back
// off in sim time (Config.StageRetryBackoff doubling per round, the node
// held throughout like a real wrapper's retry loop) and re-plan, or — once
// the Config.StageRetries budget is spent — fail the attempt. file names
// the input that had no live replica at planning time; when the exhausted
// failure is such a planning failure the attempt fails terminally with
// ErrReplicaLost (every copy stayed unreachable through the whole
// budget), while a leg-level failure exhausting the budget stays a plain
// attempt failure: the job re-plans on resubmission, where surviving
// replicas may serve it.
func (c *cluster) stageRetry(run *jobRun, file string) {
	if run.tries >= c.g.stageRetries() {
		c.fgFailed++
		if file != "" {
			run.rec.Err = &FileError{Job: run.rec.Spec.Name, File: file, Err: ErrReplicaLost}
		}
		c.release(run, true)
		return
	}
	c.restages++
	run.rec.Restages++
	backoff := c.g.stageBackoff() << uint(run.tries)
	run.tries++
	c.g.Eng.ScheduleArg(backoff, retryWake, run)
}

// retryWake runs when a re-staging backoff elapses: re-check the grid (it
// may have gone dark during the backoff) and re-plan.
func retryWake(x any) {
	run := x.(*jobRun)
	c := run.c
	if c.g.down {
		c.fgFailed++
		c.release(run, true)
		return
	}
	c.stageAttempt(run)
}

func (c *cluster) compute(run *jobRun) {
	speed := c.rnd.Uniform(c.cfg.MinSpeed, c.cfg.MaxSpeed)
	runtime := time.Duration(float64(run.rec.Spec.Runtime) / speed)

	if c.rnd.Bernoulli(c.g.cfg.Failures.Probability) {
		// The attempt dies partway through; the middleware notices only
		// after a detection delay.
		c.fgFailed++
		elapsed := time.Duration(c.rnd.Float64() * float64(runtime))
		c.g.Eng.ScheduleArg(elapsed+c.g.cfg.Failures.DetectDelay, computeFailed, run)
		return
	}
	c.g.Eng.ScheduleArg(runtime, computeDone, run)
}

// computeFailed runs when a mid-compute failure's detection delay elapses.
func computeFailed(x any) {
	run := x.(*jobRun)
	run.c.release(run, true)
}

// computeDone runs when the compute phase completes: output staging to the
// close SE starts.
func computeDone(x any) {
	run := x.(*jobRun)
	c := run.c
	var outMB float64
	for _, out := range run.rec.Spec.Outputs {
		outMB += out.SizeMB
	}
	c.transferRun(outMB, len(run.rec.Spec.Outputs), outputsStaged, run)
}

// outputsStaged runs when the output transfer completes.
func outputsStaged(x any, _ sim.Time) {
	run := x.(*jobRun)
	run.c.release(run, false)
}

// transferRun models moving totalMB across the cluster's close-SE link in
// one stream, paying the fixed per-file latency for each of nFiles files.
// fn(arg, …) runs on completion (immediately for an empty transfer).
func (c *cluster) transferRun(totalMB float64, nFiles int, fn func(any, sim.Time), arg any) {
	if totalMB <= 0 && nFiles == 0 {
		fn(arg, 0)
		return
	}
	d := time.Duration(float64(nFiles)) * c.g.cfg.Overheads.TransferLatency
	if c.cfg.TransferMBps > 0 {
		d += time.Duration(totalMB / c.cfg.TransferMBps * float64(time.Second))
	}
	c.link.UseWaitArg(d, fn, arg)
}

func (c *cluster) release(run *jobRun, failed bool) {
	c.nodes.Release()
	if !failed && (c.g.down ||
		(len(run.rec.Spec.Outputs) > 0 && c.g.catalog.SiteDark(c.site))) {
		// The attempt finished its work but the grid went dark, or the
		// close SE its outputs must register on did: settlement will turn
		// it into a failure (terminal ErrGridDown, or a retryable output
		// registration failure), which must show in this cluster's
		// failure accounting like any other failed attempt (failure paths
		// already counted themselves at their source).
		c.fgFailed++
	}
	c.g.settle(run, failed)
}

// startBackground launches the multi-user load generator: Poisson arrivals
// of foreign jobs holding worker nodes for log-normal durations, stopping
// at the horizon so event-draining runs terminate.
func (c *cluster) startBackground(horizon time.Duration) {
	c.bgHorizon = horizon
	c.bgDur = durationDist(c.cfg.BackgroundMeanDur, c.cfg.BackgroundSDDur)
	// Warm start: the grid is already ~utilized when the experiment begins,
	// like any production infrastructure.
	expected := float64(c.cfg.BackgroundMeanDur) / float64(c.cfg.BackgroundMeanIAT)
	warm := int(expected)
	if warm > c.cfg.Nodes {
		warm = c.cfg.Nodes
	}
	for i := 0; i < warm; i++ {
		// Residual durations of jobs already in flight.
		d := time.Duration(c.rnd.Float64() * float64(c.cfg.BackgroundMeanDur))
		c.occupy(d)
	}
	c.bgNext()
}

// bgNext draws the next background inter-arrival time and schedules the
// arrival, unless it would land past the horizon. The arrival chain runs
// through package functions carrying the cluster, so the steady-state
// generator allocates nothing.
func (c *cluster) bgNext() {
	iat := time.Duration(c.rnd.Exponential(float64(c.cfg.BackgroundMeanIAT)))
	if c.g.Eng.Now()+iat > sim.Time(c.bgHorizon) {
		return
	}
	c.g.Eng.ScheduleArg(iat, bgArrive, c)
}

// bgArrive runs at one background arrival: draw the job's duration, hold a
// node for it, and schedule the next arrival.
func bgArrive(x any) {
	c := x.(*cluster)
	d := time.Duration(c.bgDur.Draw(c.rnd))
	c.occupy(d)
	c.bgNext()
}

func (c *cluster) occupy(d time.Duration) {
	c.bgJobs++
	c.nodes.Use(d, nil)
}

// FileError decorates a catalog miss with job and file names.
type FileError struct {
	Job  string
	File string
	Err  error
}

// Error renders the job name, file name and underlying cause.
func (e *FileError) Error() string {
	return "grid: job " + e.Job + ": file " + e.File + ": " + e.Err.Error()
}

// Unwrap returns the underlying cause (e.g. ErrNoSuchFile), for errors.Is.
func (e *FileError) Unwrap() error { return e.Err }
