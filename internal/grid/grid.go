// Package grid simulates an EGEE/LCG2-style production grid: a serialized
// submission User Interface, a matchmaking Resource Broker, computing
// elements (clusters of heterogeneous worker nodes behind FIFO batch
// queues), storage elements with a replica catalog, a file transfer model,
// multi-user background load, and job failures with transparent
// resubmission.
//
// The paper's evaluation platform is the EGEE production infrastructure;
// its findings hinge on the grid overhead (submission + scheduling +
// queuing + transfer) being large and highly variable. This package
// reproduces those mechanisms as a discrete-event model so that the
// enactor's optimizations (data parallelism, service parallelism, job
// grouping) act on the same levers as on the real infrastructure.
package grid

import (
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ClusterConfig describes one computing element.
type ClusterConfig struct {
	Name  string
	Nodes int // worker nodes
	// MinSpeed and MaxSpeed bound the per-job node speed factor (a job's
	// compute time is Runtime / speed). EGEE worker nodes are heterogeneous
	// commodity PCs.
	MinSpeed, MaxSpeed float64
	// TransferMBps is the bandwidth of the link between the cluster and its
	// close storage element, shared by TransferStreams concurrent streams.
	TransferMBps    float64
	TransferStreams int
	// Background (multi-user) load: Poisson arrivals of foreign jobs with
	// log-normally distributed durations occupying worker nodes.
	BackgroundMeanIAT time.Duration // mean inter-arrival time (0 disables)
	BackgroundMeanDur time.Duration
	BackgroundSDDur   time.Duration
}

// OverheadConfig groups the middleware latency distributions. All
// distributions are log-normal with the given mean and standard deviation,
// matching the paper's observation of a high and variable overhead.
type OverheadConfig struct {
	// SubmitMean/SD: per-job latency at the User Interface. Submissions are
	// serialized (one UI process), which bounds the submission throughput —
	// the mechanism behind the residual slope under full data parallelism.
	SubmitMean, SubmitSD time.Duration
	// BrokerMean/SD: matchmaking latency at the Resource Broker.
	BrokerMean, BrokerSD time.Duration
	// SubmitLoadFactor models middleware saturation: the effective
	// submission latency is multiplied by (1 + factor × queued requests).
	// Burst submission (data parallelism over a whole input set) drives the
	// User Interface and Resource Broker into their loaded regime, which
	// the paper observes as "the increasing load of the middleware
	// services on a production infrastructure cannot be neglected".
	SubmitLoadFactor float64
	// DispatchMean/SD: local resource management system overhead between a
	// worker node becoming available and the job actually starting.
	DispatchMean, DispatchSD time.Duration
	// TransferLatency is the fixed per-file transfer setup cost.
	TransferLatency time.Duration
}

// FailureConfig models job failures. A failing job consumes a uniform
// fraction of its runtime, is detected after DetectDelay, and is
// resubmitted transparently until MaxRetries total attempts have been made
// (as the paper's generic wrapper does; Fig. 6's narrative: "D0 was
// submitted twice because an error occurred").
type FailureConfig struct {
	Probability float64
	DetectDelay time.Duration
	MaxRetries  int
}

// Config assembles a grid.
type Config struct {
	// Name identifies the grid as a data location: replicas registered by
	// this grid's jobs carry it in their Site.Grid, and link models class
	// transfers as intra-grid or WAN by comparing it. A federation names
	// its members; standalone grids may leave it empty (all their
	// replicas then share the "" grid and stay intra-grid to each other).
	Name      string
	Clusters  []ClusterConfig
	Overheads OverheadConfig
	Failures  FailureConfig
	// BrokerSlots is the number of jobs the Resource Broker can match
	// concurrently.
	BrokerSlots int
	// BackgroundHorizon stops background load generation after this much
	// virtual time, so Engine.Run terminates in tests that drain all events.
	BackgroundHorizon time.Duration
	// StrictFIFOSubmit disables the fair-share gate at the UI: submissions
	// are paid in global arrival order regardless of tenant, so one
	// burst-submitting tenant occupies the whole queue ahead of everyone
	// else. The default (false) drains tenants round-robin. With a single
	// tenant the two policies are identical.
	StrictFIFOSubmit bool
	// TenantWeights gives fair-share weights to named tenants: the gate
	// drains a tenant with weight k up to k submissions per round-robin
	// round before moving on, so tenant A with weight 2 clears the UI
	// twice as often as weight-1 tenants under contention. Absent or
	// sub-1 entries mean weight 1; with no weights (or one tenant) the
	// gate is the plain round-robin it always was. Ignored under
	// StrictFIFOSubmit. A tenant's weight is read once, at its first
	// submission.
	TenantWeights map[string]int
	// StageRetries bounds the re-staging rounds of one job attempt after
	// a retryable storage failure (a replica source dark at leg start, a
	// source dying mid-fetch, or every copy of an input momentarily
	// unreachable): the attempt re-plans against the surviving replicas
	// up to this many times, with exponential sim-time backoff, before
	// the attempt fails — terminally with ErrReplicaLost when the blocker
	// was an input with no live copy left. Zero means 4.
	StageRetries int
	// StageRetryBackoff is the base backoff before the first re-staging
	// round; round n waits 2^n times it (the worker node is held
	// throughout, as a real wrapper's retry loop would hold it). Zero
	// means 30 seconds.
	StageRetryBackoff time.Duration
	// DataProximityWeight is the weight of the data-proximity term in the
	// broker's cluster ranking: each cluster's rank grows by Weight ×
	// (estimated seconds of non-local input fetching a job would pay
	// there), so clusters whose close SE already holds the job's inputs
	// win ties against equally-loaded remote ones. Zero disables the
	// term. With the default all-local link model the estimate is zero
	// everywhere, so the term only acts once a real topology is attached
	// to the catalog.
	DataProximityWeight float64
	Seed                uint64
}

// DefaultConfig returns a production-grid model: ten clusters, ~1380
// nodes total, ~75% background utilization, serialized submission with
// load-dependent middleware latency, and per-job queuing/dispatch overhead
// with a heavy tail. The scale is smaller than 2006 EGEE but the regime is
// the same: abundant CPU capacity, expensive and highly variable
// middleware (the paper's "around 10 minutes, ± 5 minutes").
func DefaultConfig() Config {
	clusters := make([]ClusterConfig, 0, 10)
	sizes := []int{288, 216, 192, 168, 144, 120, 96, 72, 48, 36}
	for i, n := range sizes {
		clusters = append(clusters, ClusterConfig{
			Name:              fmt.Sprintf("ce%02d", i),
			Nodes:             n,
			MinSpeed:          0.8,
			MaxSpeed:          1.3,
			TransferMBps:      10,
			TransferStreams:   4,
			BackgroundMeanIAT: time.Duration(float64(42*time.Second) * 288 / float64(n)),
			BackgroundMeanDur: 50 * time.Minute,
			BackgroundSDDur:   35 * time.Minute,
		})
	}
	return Config{
		Clusters: clusters,
		Overheads: OverheadConfig{
			SubmitMean: 20 * time.Second, SubmitSD: 9 * time.Second,
			// Calibrated so burst submission (a data-parallel stage of the
			// paper's experiment, 100+ queued requests) inflates the mean
			// UI latency by ~20–25% — the paper's loaded regime — while
			// serial (NOP) submission stays unloaded and Table 1's
			// optimization ordering (SP+DP < DP at every size) holds under
			// the median-of-5 protocol (bronze.TestMedianOrderingAt126;
			// single seeds can flip within noise at 126 pairs, and the
			// pinned golden seed is one that does). Larger factors make
			// the serialized UI the global bottleneck and invert the
			// ordering outright.
			SubmitLoadFactor: 0.002,
			BrokerMean:       25 * time.Second, BrokerSD: 15 * time.Second,
			DispatchMean: 90 * time.Second, DispatchSD: 180 * time.Second,
			TransferLatency: 2 * time.Second,
		},
		Failures: FailureConfig{
			Probability: 0.04,
			DetectDelay: 6 * time.Minute,
			MaxRetries:  5,
		},
		BrokerSlots:       4,
		BackgroundHorizon: 14 * 24 * time.Hour,
		// 100 s of estimated extra fetching outranks one fully-loaded
		// node of backlog — strong enough to steer jobs towards their
		// data once a link topology is attached, invisible (zero
		// estimate) before that.
		DataProximityWeight: 0.01,
		Seed:                1,
	}
}

// IdealConfig returns a frictionless grid: a single huge homogeneous
// cluster, zero middleware latency, no background load, no failures,
// instant transfers. On it, the enactor's measured makespans reproduce the
// theoretical model of Sec. 3.5 exactly, which is how the model equations
// are validated.
func IdealConfig(nodes int) Config {
	return Config{
		Clusters: []ClusterConfig{{
			Name:            "ideal",
			Nodes:           nodes,
			MinSpeed:        1,
			MaxSpeed:        1,
			TransferMBps:    1e12,
			TransferStreams: nodes,
		}},
		BrokerSlots:       nodes,
		BackgroundHorizon: 0,
		Seed:              1,
	}
}

// Grid is a simulated grid infrastructure bound to a simulation engine.
type Grid struct {
	Eng      *sim.Engine
	cfg      Config
	broker   *sim.Resource
	clusters []*cluster
	catalog  *Catalog
	rnd      *rng.Source
	records  []*JobRecord
	nextID   int
	settled  func(*JobRecord) // the settle hook, see SetSettleHook

	// The middleware overhead distributions, solved once from
	// cfg.Overheads (see durationDist).
	submitDur, brokerDur, dispatchDur rng.LogNormal

	// recs arena-allocates the job records (chunked, so records stay
	// valid for the grid's lifetime without one heap object per job);
	// runs arena-allocates the pooled lifecycle contexts, recycled
	// through freeRuns at terminal settlement.
	recs     arena.Chunked[JobRecord]
	runs     arena.Chunked[jobRun]
	freeRuns []*jobRun

	// Fair-share submission gate in front of the serialized UI: one queue
	// per tenant (one in all under StrictFIFOSubmit), drained round-robin
	// (see pumpSubmits). The ring holds the queues by slot in
	// first-submission order; subSlot maps a queue key to its slot and is
	// consulted only on enqueue; subLive holds the non-empty slots, so the
	// pump finds the next queue to serve without visiting the empty ones.
	subRing    []*submitQueue
	subSlot    map[string]int
	subLive    liveSet
	subRR      int // next ring slot to serve
	subServed  int // submissions served to slot subRR this round
	subPending int // accepted, UI latency not yet paid
	uiBusy     bool

	// down marks the grid dark (see SetDown): every job attempt fails
	// with ErrGridDown at its next lifecycle transition while the flag is
	// set. seDown marks the grid's storage dimension dark (see
	// SetStorageDown): compute proceeds, but no replica on the grid can
	// be fetched and no attempt can stage or register outputs here.
	down   bool
	seDown bool
}

// New builds a grid on the engine from the configuration, with its own
// empty replica catalog.
func New(eng *sim.Engine, cfg Config) *Grid {
	return NewWithCatalog(eng, cfg, nil)
}

// NewWithCatalog builds a grid on the engine from the configuration,
// backed by the given replica catalog. A nil catalog means a fresh empty
// one (the New behaviour). Sharing one catalog across several grids models
// a federated replica catalog: outputs registered by a job on one grid are
// immediately stageable by jobs on every other grid, which is what lets a
// federation broker consecutive workflow stages to different grids.
func NewWithCatalog(eng *sim.Engine, cfg Config, cat *Catalog) *Grid {
	if len(cfg.Clusters) == 0 {
		panic("grid: config has no clusters")
	}
	if cfg.BrokerSlots <= 0 {
		cfg.BrokerSlots = 1
	}
	if cat == nil {
		cat = NewCatalog()
	}
	g := &Grid{
		Eng:     eng,
		cfg:     cfg,
		broker:  sim.NewResource(eng, cfg.BrokerSlots),
		catalog: cat,
		rnd:     rng.New(cfg.Seed),
		subSlot: make(map[string]int),

		submitDur:   durationDist(cfg.Overheads.SubmitMean, cfg.Overheads.SubmitSD),
		brokerDur:   durationDist(cfg.Overheads.BrokerMean, cfg.Overheads.BrokerSD),
		dispatchDur: durationDist(cfg.Overheads.DispatchMean, cfg.Overheads.DispatchSD),
	}
	// The catalog needs the engine clock for storage access-recency
	// accounting; the first grid of a shared-catalog federation binds it.
	cat.bindClock(eng)
	for i, cc := range cfg.Clusters {
		c := newCluster(g, cc, g.rnd.Fork(uint64(i)+100))
		g.clusters = append(g.clusters, c)
		if cc.BackgroundMeanIAT > 0 && cfg.BackgroundHorizon > 0 {
			c.startBackground(cfg.BackgroundHorizon)
		}
	}
	return g
}

// Catalog returns the grid's replica catalog (possibly shared with other
// grids of a federation — see NewWithCatalog). Together with Submit it
// makes *Grid satisfy services.Submitter, so single-workflow code passes
// the grid where campaigns pass a *federation.Tenant.
func (g *Grid) Catalog() *Catalog { return g.catalog }

// SetSettleHook registers the callback invoked at every job's terminal
// settlement, just before the submitter's own completion callback.
// Federations fold each settled record into their per-grid telemetry
// through it, instead of wrapping every submitter's callback.
func (g *Grid) SetSettleHook(h func(*JobRecord)) { g.settled = h }

// Name returns the grid's configured name — the Site.Grid component of
// every replica its jobs register (empty for an unnamed standalone grid).
func (g *Grid) Name() string { return g.cfg.Name }

// Config returns the configuration the grid was built from.
func (g *Grid) Config() Config { return g.cfg }

// Records returns the records of all jobs submitted so far, in submission
// order. Records of in-flight jobs are included and still mutating.
func (g *Grid) Records() []*JobRecord { return g.records }

// TotalNodes returns the total worker-node count across clusters.
func (g *Grid) TotalNodes() int {
	n := 0
	for _, c := range g.clusters {
		n += c.cfg.Nodes
	}
	return n
}

// BusyNodes returns the number of currently occupied worker nodes
// (foreground and background jobs).
func (g *Grid) BusyNodes() int {
	n := 0
	for _, c := range g.clusters {
		n += c.nodes.Busy()
	}
	return n
}

// RemoteInMB returns the input bytes this grid's job attempts actually
// fetched over non-local links, summed across clusters — failed and
// resubmitted attempts included, which is what distinguishes it from the
// completed-jobs-only federation.Telemetry.RemoteInMB observation.
func (g *Grid) RemoteInMB() float64 {
	var mb float64
	for _, c := range g.clusters {
		mb += c.remoteMB
	}
	return mb
}

// WANWait returns the total virtual time this grid's job attempts spent
// queued on contended WAN channels before their remote fetch legs were
// granted, summed across clusters (failed and resubmitted attempts
// included). Zero when no fabric is attached to the catalog.
func (g *Grid) WANWait() time.Duration {
	var w time.Duration
	for _, c := range g.clusters {
		w += c.wanWait
	}
	return w
}

// SetDown marks the grid dark (down = true) or recovered (down = false).
// A dark grid models a member-grid outage: it accepts no useful work —
// every job attempt fails with ErrGridDown at its next lifecycle
// transition (UI acceptance, matchmaking, stage-in, or settlement), no
// outputs are registered, and no local resubmission happens — while
// virtual time, background load and the other grids of a federation
// continue. An attempt that crosses no transition during an outage
// window (e.g. a long compute spanning the whole window) survives it.
// A dark grid's storage elements are dark with it: its replicas cannot
// be fetched from anywhere, and fetch legs in flight from it fail at
// completion (a down grid serves no data — the site power is off, not
// just the middleware). Recovery simply clears the flag; attempts still
// in the pipeline proceed normally from their next transition on.
func (g *Grid) SetDown(down bool) {
	g.down = down
	g.pushDark()
}

// Down reports whether the grid is currently dark.
func (g *Grid) Down() bool { return g.down }

// SetStorageDown marks the grid's storage dimension dark (down = true)
// or recovered — an SE-only outage: the middleware stays up (the grid
// still accepts submissions and its running jobs keep computing), but
// every replica on the grid is unreachable, no new attempt can stage in
// here, and completed attempts cannot register their outputs (they fail
// retryably at settlement). Consumers elsewhere re-stage the stranded
// inputs from surviving replicas with bounded backoff; inputs whose only
// copy lived here fail terminally with ErrReplicaLost once retries are
// exhausted.
func (g *Grid) SetStorageDown(down bool) {
	g.seDown = down
	g.pushDark()
}

// StorageDown reports whether the grid's storage dimension is dark
// (true during both SE-only outages and full outages).
func (g *Grid) StorageDown() bool { return g.seDown || g.down }

// pushDark propagates the grid's effective storage darkness — a full
// outage darkens the SEs too — into the shared catalog, where planning
// and the stage-in leg walk consult it.
func (g *Grid) pushDark() {
	g.catalog.setGridDark(g.cfg.Name, g.down || g.seDown)
}

// QueuedJobs returns the number of jobs waiting in batch queues.
func (g *Grid) QueuedJobs() int {
	n := 0
	for _, c := range g.clusters {
		n += c.nodes.Waiting()
	}
	return n
}

// Load is a point-in-time backlog snapshot of one grid — the signal set a
// federation broker ranks grids by. All counts are instantaneous virtual-
// time observations, cheap enough to take per submission.
type Load struct {
	// PendingSubmits is the UI backlog: submissions accepted by the gate
	// whose UI latency has not yet been paid (including the one in
	// service).
	PendingSubmits int
	// QueuedJobs counts jobs waiting in the computing elements' batch
	// queues.
	QueuedJobs int
	// BusyNodes counts occupied worker nodes, foreground and background.
	BusyNodes int
	// TotalNodes is the grid's worker-node capacity.
	TotalNodes int
}

// Occupancy returns the dimensionless utilization estimate
// (PendingSubmits + QueuedJobs + BusyNodes) / TotalNodes — the backlog
// term federation broker policies scale their ranks by.
func (l Load) Occupancy() float64 {
	if l.TotalNodes <= 0 {
		return 0
	}
	return float64(l.PendingSubmits+l.QueuedJobs+l.BusyNodes) / float64(l.TotalNodes)
}

// Load returns the grid's current backlog snapshot.
func (g *Grid) Load() Load {
	return Load{
		PendingSubmits: g.subPending,
		QueuedJobs:     g.QueuedJobs(),
		BusyNodes:      g.BusyNodes(),
		TotalNodes:     g.TotalNodes(),
	}
}

// ClusterStat summarizes one computing element's job accounting.
type ClusterStat struct {
	Name string
	// ForegroundJobs counts workflow job attempts dispatched to a worker
	// node (resubmissions count again).
	ForegroundJobs uint64
	// ForegroundFailed counts attempts that ended in failure, whether the
	// failure struck during input staging (missing catalog file) or during
	// computation.
	ForegroundFailed uint64
	// BackgroundJobs counts multi-user background jobs started.
	BackgroundJobs uint64
	// RemoteInMB accumulates input bytes attempts at this cluster fetched
	// over non-local links (intra-grid or WAN) because no replica was
	// behind the close SE.
	RemoteInMB float64
	// RemoteFetches counts the non-local input fetches behind RemoteInMB.
	RemoteFetches uint64
	// WANWait accumulates the virtual time attempts at this cluster spent
	// queued on contended WAN channels before their remote fetch legs
	// were granted (zero without a fabric).
	WANWait time.Duration
	// Restages counts re-staging rounds at this cluster: stage-in
	// retries forced by a replica source dark at leg start, a source
	// dying mid-fetch, or an input with no live replica at planning
	// time (each round re-plans after sim-time backoff).
	Restages uint64
}

// ClusterStats returns per-cluster accounting, in configuration order.
func (g *Grid) ClusterStats() []ClusterStat {
	out := make([]ClusterStat, len(g.clusters))
	for i, c := range g.clusters {
		out[i] = ClusterStat{
			Name:             c.cfg.Name,
			ForegroundJobs:   c.fgJobs,
			ForegroundFailed: c.fgFailed,
			BackgroundJobs:   c.bgJobs,
			RemoteInMB:       c.remoteMB,
			RemoteFetches:    c.remoteFetches,
			WANWait:          c.wanWait,
			Restages:         c.restages,
		}
	}
	return out
}

// Restages returns the grid's total re-staging rounds (stage-in retries
// after retryable storage failures), summed across clusters.
func (g *Grid) Restages() uint64 {
	var n uint64
	for _, c := range g.clusters {
		n += c.restages
	}
	return n
}

// defaultStageRetries and defaultStageRetryBackoff are the zero-value
// semantics of Config.StageRetries / Config.StageRetryBackoff: four
// re-staging rounds waiting 30s, 60s, 120s and 240s — a 7.5-minute total
// window sized to outlast short SE outage blips without holding worker
// nodes indefinitely.
const (
	defaultStageRetries      = 4
	defaultStageRetryBackoff = 30 * time.Second
)

func (g *Grid) stageRetries() int {
	if g.cfg.StageRetries > 0 {
		return g.cfg.StageRetries
	}
	return defaultStageRetries
}

func (g *Grid) stageBackoff() time.Duration {
	if g.cfg.StageRetryBackoff > 0 {
		return g.cfg.StageRetryBackoff
	}
	return defaultStageRetryBackoff
}

// tenantWeight returns the tenant's fair-share weight (1 unless raised by
// Config.TenantWeights).
func (g *Grid) tenantWeight(tenant string) int {
	if w := g.cfg.TenantWeights[tenant]; w > 1 {
		return w
	}
	return 1
}

// durationDist solves a log-normal duration distribution, a middleware
// overhead or a background job's hold time. A non-positive mean leaves the
// zero distribution: its draws are 0 and consume no randomness, so an
// overhead set to 0 is off.
func durationDist(mean, sd time.Duration) rng.LogNormal {
	if mean <= 0 {
		return rng.LogNormal{}
	}
	return rng.NewLogNormal(float64(mean), float64(sd))
}

// drawOverhead draws one middleware overhead from the grid's stream.
func (g *Grid) drawOverhead(d rng.LogNormal) time.Duration {
	return time.Duration(d.Draw(g.rnd))
}
