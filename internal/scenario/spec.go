// Package scenario compiles declarative what-if descriptions into
// ready-to-run federated campaign worlds. A scenario is one JSON file
// naming everything the simulator can vary — member grids and their
// clusters, link classes with per-pair matrix overrides, contended WAN
// streams, compute and storage outage schedules (explicit windows or
// generated correlated failure waves), storage-element capacity and
// eviction, the replication floor, broker policy, admission control, and
// a tenant mix whose arrivals, file sizes and placement skew come from
// seeded generators — so that every future experiment is a spec file
// instead of a hand-assembled Go test or a pile of CLI flags.
//
// The compiler (Compile) turns a validated Spec into a federation plus
// campaign tenant specs on a fresh engine; World.Run enacts it. All
// randomness flows through internal/rng streams forked from Spec.Seed,
// so a scenario is exactly as bit-reproducible as the hand-built worlds
// it replaces (pinned by the per-scenario determinism test over
// scenarios/*.json and by the spec↔hand-assembled equivalence test).
//
// Validation is line-anchored: a semantic error (an outage naming an
// unknown grid, overlapping outage windows, a tenant group referencing a
// missing policy) is reported with the line of the offending token in
// the source file, so a broken spec reads like a compiler error.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// Duration is a time.Duration that unmarshals from JSON strings in
// time.ParseDuration syntax ("90s", "2h45m"). Bare JSON numbers are
// rejected: a unitless 30 silently meaning nanoseconds is exactly the
// kind of mistake a spec format exists to prevent.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\", got %s", data)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D returns the duration as a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is one declarative scenario: a complete federated campaign world.
type Spec struct {
	// Name identifies the scenario in sweep tables and error messages.
	Name string `json:"name"`
	// Description is a one-line summary for the library table.
	Description string `json:"description,omitempty"`
	// Seed is the root of every generator stream the compiler forks
	// (arrivals, file sizes, failure waves). Member grids with no explicit
	// seed derive theirs from it too. Zero means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Grids are the member infrastructures, in brokering order.
	Grids []GridSpec `json:"grids"`
	// Links configures the transfer topology. Nil keeps the federation
	// default (grid.DefaultWAN: intra-grid local, cross-grid 2 MB/s + 5 s).
	Links *LinksSpec `json:"links,omitempty"`
	// WANStreams, when positive, makes the WAN a contended fabric with
	// that many concurrent fetch legs per ordered grid pair.
	WANStreams int `json:"wanStreams,omitempty"`
	// Outages are explicit outage windows; Waves can generate more.
	Outages []OutageSpec `json:"outages,omitempty"`
	// Waves, when non-nil, generates correlated failure waves: periodic
	// bursts of outage windows hitting a random fraction of the grids at
	// once, seeded from Seed so the schedule is reproducible.
	Waves *WavesSpec `json:"waves,omitempty"`
	// Storage configures active storage elements. Nil keeps elements
	// passive and unlimited.
	Storage *StorageSpec `json:"storage,omitempty"`
	// Broker configures the federation's policy and re-brokering. Nil
	// means the locality-aware ranked policy with no re-brokering.
	Broker *BrokerSpec `json:"broker,omitempty"`
	// Admission configures campaign arrival gating. Nil disables it.
	Admission *AdmissionSpec `json:"admission,omitempty"`
	// Policies are the named enactor option mixes tenant groups reference.
	Policies map[string]OptionsSpec `json:"policies"`
	// Tenants are the tenant groups of the campaign, expanded in order.
	Tenants []TenantGroup `json:"tenants"`

	// raw holds the source bytes for line-anchored errors; file names the
	// source for error prefixes. Both empty on hand-built specs.
	raw  []byte
	file string
}

// GridSpec describes one member grid, or — with Count > 1 — a family of
// near-identical members differing only by name suffix and seed.
type GridSpec struct {
	// Name names the grid; with Count > 1 it is a prefix and member i is
	// named Name+i ("g" → g0, g1, …).
	Name string `json:"name"`
	// Count replicates this spec into that many members (0 means 1).
	Count int `json:"count,omitempty"`
	// Preset picks the base configuration: "quiet" (a single homogeneous
	// cluster of Nodes frictionless workers with small fixed middleware
	// latencies and no background load — the deterministic testbed of the
	// campaign scenario suites) or "default" (grid.DefaultConfig, the
	// calibrated 10-cluster production model with background load and
	// failures). Empty means "quiet".
	Preset string `json:"preset,omitempty"`
	// Nodes sizes the quiet preset's single cluster (0 means 24). Ignored
	// with explicit Clusters or the default preset.
	Nodes int `json:"nodes,omitempty"`
	// Clusters, when non-empty, replaces the preset's cluster set.
	Clusters []ClusterSpec `json:"clusters,omitempty"`
	// Seed seeds the grid's random streams; member i of a Count family
	// uses Seed+i. Zero derives Seed from the spec root seed and the
	// member index.
	Seed uint64 `json:"seed,omitempty"`
	// SubmitMean etc. override the preset's middleware latency
	// distributions; zero keeps the preset value.
	SubmitMean   Duration `json:"submitMean,omitempty"`
	SubmitSD     Duration `json:"submitSD,omitempty"`
	BrokerMean   Duration `json:"brokerMean,omitempty"`
	BrokerSD     Duration `json:"brokerSD,omitempty"`
	DispatchMean Duration `json:"dispatchMean,omitempty"`
	DispatchSD   Duration `json:"dispatchSD,omitempty"`
	// SubmitLoadFactor overrides the preset's middleware saturation
	// factor; zero keeps the preset value.
	SubmitLoadFactor float64 `json:"submitLoadFactor,omitempty"`
	// BrokerSlots overrides concurrent matchmaking slots; zero keeps the
	// preset value.
	BrokerSlots int `json:"brokerSlots,omitempty"`
	// Failures configures stochastic job failures. Nil keeps the preset's.
	Failures *FailureSpec `json:"failures,omitempty"`
	// StrictFIFO disables the fair-share gate at this grid's UI.
	StrictFIFO bool `json:"strictFifo,omitempty"`
	// BackgroundHorizon bounds background-load generation; zero keeps the
	// preset value.
	BackgroundHorizon Duration `json:"backgroundHorizon,omitempty"`
}

// ClusterSpec describes one computing element of an explicit cluster set.
type ClusterSpec struct {
	// Name names the computing element.
	Name string `json:"name"`
	// Nodes is the worker-node count.
	Nodes int `json:"nodes"`
	// MinSpeed and MaxSpeed bound the per-job node speed factor (both 0
	// means homogeneous speed 1).
	MinSpeed float64 `json:"minSpeed,omitempty"`
	MaxSpeed float64 `json:"maxSpeed,omitempty"`
	// TransferMBps and TransferStreams configure the close-SE link (0 MBps
	// means effectively infinite bandwidth).
	TransferMBps    float64 `json:"transferMBps,omitempty"`
	TransferStreams int     `json:"transferStreams,omitempty"`
	// BackgroundMeanIAT enables Poisson background load with the given
	// mean inter-arrival time (0 disables).
	BackgroundMeanIAT Duration `json:"backgroundMeanIAT,omitempty"`
	BackgroundMeanDur Duration `json:"backgroundMeanDur,omitempty"`
	BackgroundSDDur   Duration `json:"backgroundSDDur,omitempty"`
}

// FailureSpec configures stochastic job failures of one member grid.
type FailureSpec struct {
	// Probability is the per-attempt failure probability.
	Probability float64 `json:"probability"`
	// DetectDelay is how long a failure takes to surface.
	DetectDelay Duration `json:"detectDelay,omitempty"`
	// MaxRetries bounds total attempts per job on the grid.
	MaxRetries int `json:"maxRetries,omitempty"`
}

// LinksSpec configures the transfer topology: class links plus optional
// per-pair matrix overrides.
type LinksSpec struct {
	// Local makes every transfer free (the location-blind control arm).
	// All other fields are then rejected.
	Local bool `json:"local,omitempty"`
	// WANMBps and WANLatency price the cross-grid class link. Both zero
	// degrades cross-grid transfers to local (class semantics).
	WANMBps    float64  `json:"wanMBps,omitempty"`
	WANLatency Duration `json:"wanLatency,omitempty"`
	// IntraGridMBps and IntraGridLatency price the same-grid cross-cluster
	// class link. Both zero keeps it local (the close-SE abstraction).
	IntraGridMBps    float64  `json:"intraGridMBps,omitempty"`
	IntraGridLatency Duration `json:"intraGridLatency,omitempty"`
	// Pairs lists per-pair overrides layered over the class links.
	Pairs []PairSpec `json:"pairs,omitempty"`
}

// PairSpec is one measured (from, to) link of a per-pair matrix.
type PairSpec struct {
	// From and To name member grids (the direction a replica moves).
	From string `json:"from"`
	To   string `json:"to"`
	// MBps and Latency price the pair.
	MBps    float64  `json:"mbps"`
	Latency Duration `json:"latency,omitempty"`
}

// OutageSpec is one scheduled outage window.
type OutageSpec struct {
	// Grid names the member grid.
	Grid string `json:"grid"`
	// At is the outage start relative to federation construction.
	At Duration `json:"at"`
	// For is the outage duration; zero means no recovery.
	For Duration `json:"for,omitempty"`
	// Storage restricts the outage to the grid's storage dimension.
	Storage bool `json:"storage,omitempty"`
}

// WavesSpec generates correlated failure waves: Waves bursts, each
// hitting a Fraction of the member grids at once with outage windows of
// log-normally distributed durations. Generated windows respect the
// federation's per-grid non-overlap rule by construction: a grid whose
// previous window would still be open when a wave breaks sits that wave
// out.
type WavesSpec struct {
	// Waves is the number of waves (required > 0).
	Waves int `json:"waves"`
	// FirstAt is the start of the first wave.
	FirstAt Duration `json:"firstAt"`
	// Spacing separates consecutive wave starts (required > 0).
	Spacing Duration `json:"spacing"`
	// Fraction of member grids hit per wave, rounded up to at least one
	// grid (required in (0, 1]).
	Fraction float64 `json:"fraction"`
	// Duration is the mean outage duration (required > 0); DurationSD
	// spreads it log-normally (zero means constant).
	Duration   Duration `json:"duration"`
	DurationSD Duration `json:"durationSD,omitempty"`
	// Storage makes the waves storage-only outages.
	Storage bool `json:"storage,omitempty"`
}

// StorageSpec configures active storage elements.
type StorageSpec struct {
	// CapacityMB is the per-element capacity (0 keeps elements unlimited).
	CapacityMB float64 `json:"capacityMB,omitempty"`
	// Eviction picks the overflow policy: "lru" or "popularity" (empty
	// means lru).
	Eviction string `json:"eviction,omitempty"`
	// MinReplicas arms the k-replication repair floor (0 or 1 disables).
	MinReplicas int `json:"minReplicas,omitempty"`
}

// BrokerSpec configures the federation broker.
type BrokerSpec struct {
	// Policy names the broker policy: ranked, ranked-blind, ranked-safe,
	// backlog, rr, or pinned:N. Empty means ranked.
	Policy string `json:"policy,omitempty"`
	// Rebroker is the cross-grid resubmission budget after terminal
	// failures.
	Rebroker int `json:"rebroker,omitempty"`
	// EWMAAlpha is the telemetry smoothing factor (0 means 0.2).
	EWMAAlpha float64 `json:"ewmaAlpha,omitempty"`
}

// AdmissionSpec configures campaign arrival gating.
type AdmissionSpec struct {
	// MaxUIBacklog holds arrivals back while the UI backlog exceeds it.
	MaxUIBacklog int `json:"maxUIBacklog"`
	// Retry is the re-check period of held-back tenants (0 means 30s).
	Retry Duration `json:"retry,omitempty"`
	// MaxDelay bounds admission delay before rejection (0 means unbounded).
	MaxDelay Duration `json:"maxDelay,omitempty"`
}

// OptionsSpec is a named enactor option mix (core.Options in spec form).
type OptionsSpec struct {
	// DataParallelism allows concurrent invocations of one service.
	DataParallelism bool `json:"dataParallelism,omitempty"`
	// ServiceParallelism streams items between services as produced.
	ServiceParallelism bool `json:"serviceParallelism,omitempty"`
	// JobGrouping fuses eligible sequential wrapper chains.
	JobGrouping bool `json:"jobGrouping,omitempty"`
	// MaxConcurrent caps concurrent invocations per service (0 unlimited).
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// DataGroupSize batches ready invocations into one grid job.
	DataGroupSize int `json:"dataGroupSize,omitempty"`
	// DataGroupWindow is how long an under-filled batch waits.
	DataGroupWindow Duration `json:"dataGroupWindow,omitempty"`
}

// TenantGroup expands into Count tenants sharing one policy, workload
// shape and arrival process.
type TenantGroup struct {
	// Count is the number of tenants in the group (0 means 1). Large
	// counts are the "population" mode: hundreds of tenants with
	// generated arrivals.
	Count int `json:"count,omitempty"`
	// Prefix names the tenants: member i of the group is Prefix +
	// two-digit index ("t" → t00, t01, …), counted within the group.
	Prefix string `json:"prefix"`
	// Policy references named mixes in Spec.Policies: one name, or a
	// list rotated over the group — member i of the group uses
	// Policy[i%len].
	Policy PolicyList `json:"policy"`
	// Weight is the tenant's fair-share weight at every member grid's UI
	// gate (0 or 1 means the plain round-robin share).
	Weight int `json:"weight,omitempty"`
	// Arrivals generates the group's arrival offsets. Nil means all at 0.
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
	// Workload shapes each tenant's chain workflow and input corpus.
	Workload WorkloadSpec `json:"workload"`
	// Adapt opts the group into adaptive granularity retuning.
	Adapt *AdaptSpec `json:"adapt,omitempty"`
}

// PolicyList names the option mixes of a tenant group. It unmarshals
// from one JSON string or a JSON list of strings.
type PolicyList []string

// UnmarshalJSON implements json.Unmarshaler.
func (p *PolicyList) UnmarshalJSON(data []byte) error {
	var one string
	if err := json.Unmarshal(data, &one); err == nil {
		*p = PolicyList{one}
		return nil
	}
	var many []string
	if err := json.Unmarshal(data, &many); err != nil {
		return fmt.Errorf("policy must be a mix name or a list of names, got %s", data)
	}
	*p = many
	return nil
}

// AdaptSpec configures adaptive granularity for a tenant group.
type AdaptSpec struct {
	// Interval is the retuning period (required > 0).
	Interval Duration `json:"interval"`
	// Slots is the assumed per-tenant concurrency (0 means an equal share).
	Slots int `json:"slots,omitempty"`
	// MinBatch and MaxBatch clamp the chosen batch size (0 unclamped).
	MinBatch int `json:"minBatch,omitempty"`
	MaxBatch int `json:"maxBatch,omitempty"`
}

// ArrivalSpec is a generative arrival process for a tenant group.
type ArrivalSpec struct {
	// Kind picks the process: "staggered" (tenant i arrives at i×Spread —
	// the deterministic wave of the hand-built scenarios), "poisson"
	// (exponential inter-arrivals of mean MeanIAT), "bursty" (bursts of
	// Burst back-to-back arrivals jittered within BurstSpread, bursts
	// separated by exponential gaps of mean MeanIAT) or "diurnal"
	// (non-homogeneous Poisson whose rate swings sinusoidally with
	// amplitude Peak over Period).
	Kind string `json:"kind"`
	// Start offsets the whole process.
	Start Duration `json:"start,omitempty"`
	// Spread is the staggered kind's inter-arrival step.
	Spread Duration `json:"spread,omitempty"`
	// MeanIAT is the mean inter-arrival (poisson) or inter-burst (bursty)
	// time.
	MeanIAT Duration `json:"meanIAT,omitempty"`
	// Burst is the bursty kind's arrivals per burst.
	Burst int `json:"burst,omitempty"`
	// BurstSpread jitters arrivals within one burst over this window.
	BurstSpread Duration `json:"burstSpread,omitempty"`
	// Period is the diurnal kind's cycle length (0 means 24h).
	Period Duration `json:"period,omitempty"`
	// Peak is the diurnal kind's rate-modulation amplitude in [0, 1).
	Peak float64 `json:"peak,omitempty"`
}

// WorkloadSpec shapes one tenant's synthetic chain workload.
type WorkloadSpec struct {
	// Stages is the pipeline depth (required > 0).
	Stages int `json:"stages"`
	// Items is the input corpus size (required > 0).
	Items int `json:"items"`
	// Runtime is the per-stage compute time on a reference node.
	Runtime Duration `json:"runtime"`
	// Sizes generates the per-item input file sizes.
	Sizes SizeSpec `json:"sizes"`
	// OutputMB sizes stage outputs (0 means the size distribution's mean).
	OutputMB float64 `json:"outputMB,omitempty"`
	// Skew is the fraction of each tenant's inputs placed on its home
	// grid (the rest stays unplaced, i.e. local everywhere).
	Skew float64 `json:"skew,omitempty"`
	// Homes rotates tenant home grids: member i of the group homes at
	// Homes[i%len]. Empty leaves every input unplaced.
	Homes []string `json:"homes,omitempty"`
}

// SizeSpec is a generative file-size distribution.
type SizeSpec struct {
	// Kind picks the distribution: "constant" (every file MeanMB),
	// "lognormal" (mean MeanMB, standard deviation SDMB) or "pareto"
	// (scale MinMB, shape Alpha — the heavy-tailed corpus).
	Kind string `json:"kind"`
	// MeanMB is the constant size or the log-normal mean.
	MeanMB float64 `json:"meanMB,omitempty"`
	// SDMB is the log-normal standard deviation.
	SDMB float64 `json:"sdMB,omitempty"`
	// MinMB is the Pareto scale (the minimum file size).
	MinMB float64 `json:"minMB,omitempty"`
	// Alpha is the Pareto shape (smaller = heavier tail; required > 0).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxMB caps a draw (0 uncapped). Pareto tails are unbounded; a cap
	// keeps a single astronomical draw from dominating a whole scenario.
	MaxMB float64 `json:"maxMB,omitempty"`
}

// Load reads, parses and validates a scenario file. Errors carry the
// file name and, for semantic errors, the line of the offending token.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data, path)
}

// Parse parses and validates scenario bytes; file names the source in
// errors.
func Parse(data []byte, file string) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, decodeError(data, file, err)
	}
	s.raw, s.file = data, file
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeError anchors a JSON decoding failure to a line of the source.
func decodeError(data []byte, file string, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("scenario %s: line %d: %w", file, lineOfOffset(data, syn.Offset), err)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return fmt.Errorf("scenario %s: line %d: %w", file, lineOfOffset(data, typ.Offset), err)
	}
	// Unknown-field and custom unmarshaler errors carry the offending
	// token in their text; anchor to its first occurrence.
	if msg := err.Error(); msg != "" {
		if _, tok, ok := cutQuoted(msg); ok {
			if line := lineOfToken(data, tok); line > 0 {
				return fmt.Errorf("scenario %s: line %d: %w", file, line, err)
			}
		}
	}
	return fmt.Errorf("scenario %s: %w", file, err)
}

// cutQuoted extracts the first double-quoted token of a message.
func cutQuoted(msg string) (before, token string, ok bool) {
	i := -1
	for j := 0; j < len(msg); j++ {
		if msg[j] == '"' {
			if i < 0 {
				i = j + 1
				continue
			}
			return msg[:i-1], msg[i:j], true
		}
	}
	return "", "", false
}

// lineOfOffset returns the 1-based line of a byte offset.
func lineOfOffset(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte("\n"))
}

// lineOfToken returns the 1-based line of the first occurrence of the
// token as a quoted JSON string, or 0 when absent.
func lineOfToken(data []byte, token string) int {
	i := bytes.Index(data, []byte(`"`+token+`"`))
	if i < 0 {
		return 0
	}
	return 1 + bytes.Count(data[:i], []byte("\n"))
}

// errAt builds a validation error anchored at the first occurrence of
// token in the source (plain when the spec was built by hand).
func (s *Spec) errAt(token, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	name := s.file
	if name == "" {
		name = s.Name
	}
	if line := lineOfToken(s.raw, token); line > 0 {
		return fmt.Errorf("scenario %s: line %d: %s", name, line, msg)
	}
	return fmt.Errorf("scenario %s: %s", name, msg)
}

// GridNames returns the expanded member-grid names in brokering order.
func (s *Spec) GridNames() []string {
	var names []string
	for _, g := range s.Grids {
		n := g.Count
		if n <= 0 {
			n = 1
		}
		if n == 1 {
			names = append(names, g.Name)
			continue
		}
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("%s%d", g.Name, i))
		}
	}
	return names
}

// TenantCount returns the total tenant count across groups.
func (s *Spec) TenantCount() int {
	n := 0
	for _, g := range s.Tenants {
		c := g.Count
		if c <= 0 {
			c = 1
		}
		n += c
	}
	return n
}

// Validate checks the spec for semantic errors: unknown grid references,
// overlapping outage windows, tenant groups referencing missing
// policies, malformed generators. Errors are anchored to source lines
// when the spec came from Load/Parse.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return s.errAt("", "missing scenario name")
	}
	if len(s.Grids) == 0 {
		return s.errAt(s.Name, "scenario has no grids")
	}
	gridSet := make(map[string]bool)
	for _, g := range s.Grids {
		if g.Name == "" {
			return s.errAt(s.Name, "grid with an empty name")
		}
		if g.Count < 0 {
			return s.errAt(g.Name, "grid %q has a negative count", g.Name)
		}
		switch g.Preset {
		case "", "quiet", "default":
		default:
			return s.errAt(g.Preset, "grid %q has unknown preset %q (want quiet|default)", g.Name, g.Preset)
		}
		if g.Nodes < 0 {
			return s.errAt(g.Name, "grid %q has negative nodes", g.Name)
		}
		for _, c := range g.Clusters {
			if c.Name == "" || c.Nodes <= 0 {
				return s.errAt(g.Name, "grid %q has a cluster without a name or positive nodes", g.Name)
			}
		}
		if f := g.Failures; f != nil && (f.Probability < 0 || f.Probability > 1) {
			return s.errAt(g.Name, "grid %q failure probability %v outside [0, 1]", g.Name, f.Probability)
		}
		for _, name := range (&Spec{Grids: []GridSpec{g}}).GridNames() {
			if gridSet[name] {
				return s.errAt(g.Name, "duplicate grid name %q", name)
			}
			gridSet[name] = true
		}
	}
	if l := s.Links; l != nil {
		if l.Local && (l.WANMBps != 0 || l.IntraGridMBps != 0 || len(l.Pairs) != 0) {
			return s.errAt("links", "links.local excludes every other link field")
		}
		for _, p := range l.Pairs {
			if !gridSet[p.From] {
				return s.errAt(p.From, "link pair references unknown grid %q", p.From)
			}
			if !gridSet[p.To] {
				return s.errAt(p.To, "link pair references unknown grid %q", p.To)
			}
			if p.From == p.To {
				return s.errAt(p.From, "link pair %s>%s is a self-loop", p.From, p.To)
			}
			if p.MBps <= 0 {
				return s.errAt(p.From, "link pair %s>%s has non-positive bandwidth", p.From, p.To)
			}
		}
	}
	if s.WANStreams < 0 {
		return s.errAt("wanStreams", "negative wanStreams")
	}
	if err := s.validateOutages(gridSet); err != nil {
		return err
	}
	if w := s.Waves; w != nil {
		switch {
		case w.Waves <= 0:
			return s.errAt("waves", "waves.waves must be positive")
		case w.Spacing <= 0:
			return s.errAt("spacing", "waves.spacing must be positive")
		case w.Fraction <= 0 || w.Fraction > 1:
			return s.errAt("fraction", "waves.fraction %v outside (0, 1]", w.Fraction)
		case w.Duration <= 0:
			return s.errAt("duration", "waves.duration must be positive")
		case w.FirstAt < 0 || w.DurationSD < 0:
			return s.errAt("waves", "waves has a negative instant or spread")
		}
	}
	if st := s.Storage; st != nil {
		if st.CapacityMB < 0 || st.MinReplicas < 0 {
			return s.errAt("storage", "storage has a negative capacity or replication floor")
		}
		switch st.Eviction {
		case "", "lru", "popularity":
		default:
			return s.errAt(st.Eviction, "unknown eviction policy %q (want lru|popularity)", st.Eviction)
		}
	}
	if b := s.Broker; b != nil {
		if b.Policy != "" {
			if _, err := ParsePolicy(b.Policy, len(gridSet)); err != nil {
				return s.errAt(b.Policy, "broker: %v", err)
			}
		}
		if b.Rebroker < 0 {
			return s.errAt("rebroker", "broker has a negative rebroker budget")
		}
		if b.EWMAAlpha < 0 || b.EWMAAlpha > 1 {
			return s.errAt("ewmaAlpha", "broker EWMA alpha %v outside [0, 1]", b.EWMAAlpha)
		}
	}
	if a := s.Admission; a != nil && a.MaxUIBacklog <= 0 {
		return s.errAt("admission", "admission.maxUIBacklog must be positive")
	}
	if len(s.Tenants) == 0 {
		return s.errAt(s.Name, "scenario has no tenant groups")
	}
	seenPrefix := make(map[string]bool)
	for _, g := range s.Tenants {
		if g.Prefix == "" {
			return s.errAt("tenants", "tenant group with an empty prefix")
		}
		if seenPrefix[g.Prefix] {
			return s.errAt(g.Prefix, "duplicate tenant group prefix %q", g.Prefix)
		}
		seenPrefix[g.Prefix] = true
		if g.Count < 0 {
			return s.errAt(g.Prefix, "tenant group %q has a negative count", g.Prefix)
		}
		if len(g.Policy) == 0 {
			return s.errAt(g.Prefix, "tenant group %q names no policy", g.Prefix)
		}
		for _, name := range g.Policy {
			if _, ok := s.Policies[name]; !ok {
				return s.errAt(name, "tenant group %q references missing policy %q", g.Prefix, name)
			}
		}
		if g.Weight < 0 {
			return s.errAt(g.Prefix, "tenant group %q has a negative weight", g.Prefix)
		}
		if err := s.validateArrivals(g); err != nil {
			return err
		}
		if err := s.validateWorkload(g, gridSet); err != nil {
			return err
		}
		if a := g.Adapt; a != nil && a.Interval <= 0 {
			return s.errAt(g.Prefix, "tenant group %q adapt interval must be positive", g.Prefix)
		}
	}
	return nil
}

// validateOutages rejects unknown grids and overlapping windows of one
// grid and mode — the same rule federation.New enforces, surfaced here
// with a line anchor before any world is built.
func (s *Spec) validateOutages(gridSet map[string]bool) error {
	perKey := make(map[string][]OutageSpec)
	for _, o := range s.Outages {
		if !gridSet[o.Grid] {
			return s.errAt(o.Grid, "outage references unknown grid %q", o.Grid)
		}
		if o.At < 0 || o.For < 0 {
			return s.errAt(o.Grid, "outage of %q has a negative instant or duration", o.Grid)
		}
		key := o.Grid
		if o.Storage {
			key += "\x00storage"
		}
		for _, prev := range perKey[key] {
			lo, hi := prev, o
			if hi.At < lo.At {
				lo, hi = hi, lo
			}
			if lo.For == 0 || lo.At+lo.For > hi.At {
				return s.errAt(o.Grid, "outage windows of %q overlap", o.Grid)
			}
		}
		perKey[key] = append(perKey[key], o)
	}
	return nil
}

// validateArrivals checks a group's arrival process.
func (s *Spec) validateArrivals(g TenantGroup) error {
	a := g.Arrivals
	if a == nil {
		return nil
	}
	switch a.Kind {
	case "staggered":
		if a.Spread < 0 {
			return s.errAt(g.Prefix, "tenant group %q staggered arrivals need a non-negative spread", g.Prefix)
		}
	case "poisson":
		if a.MeanIAT <= 0 {
			return s.errAt(g.Prefix, "tenant group %q poisson arrivals need a positive meanIAT", g.Prefix)
		}
	case "bursty":
		if a.Burst <= 0 || a.MeanIAT <= 0 {
			return s.errAt(g.Prefix, "tenant group %q bursty arrivals need a positive burst and meanIAT", g.Prefix)
		}
	case "diurnal":
		if a.MeanIAT <= 0 {
			return s.errAt(g.Prefix, "tenant group %q diurnal arrivals need a positive meanIAT", g.Prefix)
		}
		if a.Peak < 0 || a.Peak >= 1 {
			return s.errAt(g.Prefix, "tenant group %q diurnal peak %v outside [0, 1)", g.Prefix, a.Peak)
		}
	default:
		return s.errAt(a.Kind, "tenant group %q has unknown arrival kind %q (want staggered|poisson|bursty|diurnal)", g.Prefix, a.Kind)
	}
	if a.Start < 0 {
		return s.errAt(g.Prefix, "tenant group %q arrivals start before the campaign", g.Prefix)
	}
	return nil
}

// validateWorkload checks a group's workload shape and size generator.
func (s *Spec) validateWorkload(g TenantGroup, gridSet map[string]bool) error {
	w := g.Workload
	if w.Stages <= 0 || w.Items <= 0 {
		return s.errAt(g.Prefix, "tenant group %q needs positive stages and items", g.Prefix)
	}
	if w.Runtime <= 0 {
		return s.errAt(g.Prefix, "tenant group %q needs a positive runtime", g.Prefix)
	}
	if w.Skew < 0 || w.Skew > 1 {
		return s.errAt(g.Prefix, "tenant group %q placement skew %v outside [0, 1]", g.Prefix, w.Skew)
	}
	if w.OutputMB < 0 {
		return s.errAt(g.Prefix, "tenant group %q has a negative outputMB", g.Prefix)
	}
	for _, h := range w.Homes {
		if !gridSet[h] {
			return s.errAt(h, "tenant group %q homes at unknown grid %q", g.Prefix, h)
		}
	}
	sz := w.Sizes
	switch sz.Kind {
	case "constant":
		if sz.MeanMB <= 0 {
			return s.errAt(g.Prefix, "tenant group %q constant sizes need a positive meanMB", g.Prefix)
		}
	case "lognormal":
		if sz.MeanMB <= 0 || sz.SDMB < 0 {
			return s.errAt(g.Prefix, "tenant group %q lognormal sizes need a positive meanMB and non-negative sdMB", g.Prefix)
		}
	case "pareto":
		if sz.MinMB <= 0 || sz.Alpha <= 0 {
			return s.errAt(g.Prefix, "tenant group %q pareto sizes need a positive minMB and alpha", g.Prefix)
		}
	default:
		return s.errAt(sz.Kind, "tenant group %q has unknown size kind %q (want constant|lognormal|pareto)", g.Prefix, sz.Kind)
	}
	if sz.MaxMB < 0 || (sz.MaxMB > 0 && sz.Kind == "pareto" && sz.MaxMB < sz.MinMB) {
		return s.errAt(g.Prefix, "tenant group %q size cap below the minimum", g.Prefix)
	}
	return nil
}

// constantSizes reports whether the distribution is degenerate (every
// draw identical), with the constant value.
func (sz SizeSpec) constant() (float64, bool) {
	switch sz.Kind {
	case "constant":
		return sz.MeanMB, true
	case "lognormal":
		if sz.SDMB == 0 {
			return sz.MeanMB, true
		}
	}
	return 0, false
}

// mean returns the distribution's analytic mean (used for default stage
// output sizes). A capped Pareto uses the uncapped mean clamped to the
// cap — close enough for sizing intermediates.
func (sz SizeSpec) mean() float64 {
	switch sz.Kind {
	case "constant":
		return sz.MeanMB
	case "lognormal":
		return sz.MeanMB
	case "pareto":
		if sz.Alpha <= 1 {
			// Infinite-mean regime: fall back to the scale (arbitrary but
			// finite and deterministic); scenarios wanting a specific
			// intermediate size set OutputMB explicitly.
			if sz.MaxMB > 0 {
				return math.Min(sz.MinMB*4, sz.MaxMB)
			}
			return sz.MinMB * 4
		}
		m := sz.MinMB * sz.Alpha / (sz.Alpha - 1)
		if sz.MaxMB > 0 {
			m = math.Min(m, sz.MaxMB)
		}
		return m
	}
	return 0
}
