package scenario

import (
	"fmt"
	"time"
)

// Overrides carries CLI-level adjustments layered over a loaded spec:
// when a scenario file is in play, the flags of cmd/federation stop
// describing whole worlds and become overrides of the named scenario.
// Nil pointer fields leave the spec untouched.
type Overrides struct {
	// Seed replaces the spec's root seed.
	Seed *uint64
	// Policy replaces the broker policy name.
	Policy *string
	// WANStreams replaces the contended-fabric stream count.
	WANStreams *int
	// Rebroker replaces the cross-grid resubmission budget.
	Rebroker *int
	// SECapacityMB and SEEviction replace the storage section.
	SECapacityMB *float64
	SEEviction   *string
	// MinReplicas replaces the replication floor.
	MinReplicas *int
	// Outages are appended to the spec's explicit outage windows.
	Outages []OutageSpec
	// Tenants replaces the tenant count — only meaningful when the spec
	// has exactly one tenant group, and it must be positive (a spec's
	// count of 0 means 1, so a zero override would silently run one).
	Tenants *int
	// Stages, Items, Runtime and Skew replace the corresponding workload
	// field in every tenant group.
	Stages  *int
	Items   *int
	Runtime *time.Duration
	Skew    *float64
	// FileMB replaces the constant file size of every constant-size
	// tenant group (an error when the spec has none: the flag would be
	// silently ignored).
	FileMB *float64
	// Spread replaces the inter-arrival step of every staggered tenant
	// group.
	Spread *time.Duration
}

// Apply layers the overrides onto the spec and re-validates it. The
// spec is mutated in place; validation errors keep their line anchors
// relative to the original file (overridden values no longer appear in
// it, so anchored errors can point at the replaced token).
func (o Overrides) Apply(s *Spec) error {
	if o.Seed != nil {
		s.Seed = *o.Seed
	}
	if o.Policy != nil {
		if s.Broker == nil {
			s.Broker = &BrokerSpec{}
		}
		s.Broker.Policy = *o.Policy
	}
	if o.WANStreams != nil {
		s.WANStreams = *o.WANStreams
	}
	if o.Rebroker != nil {
		if s.Broker == nil {
			s.Broker = &BrokerSpec{}
		}
		s.Broker.Rebroker = *o.Rebroker
	}
	if o.SECapacityMB != nil || o.SEEviction != nil || o.MinReplicas != nil {
		if s.Storage == nil {
			s.Storage = &StorageSpec{}
		}
		if o.SECapacityMB != nil {
			s.Storage.CapacityMB = *o.SECapacityMB
		}
		if o.SEEviction != nil {
			s.Storage.Eviction = *o.SEEviction
		}
		if o.MinReplicas != nil {
			s.Storage.MinReplicas = *o.MinReplicas
		}
	}
	s.Outages = append(s.Outages, o.Outages...)
	if o.Tenants != nil {
		if *o.Tenants < 1 {
			return fmt.Errorf("scenario %s: -tenants override must be positive, got %d", s.Name, *o.Tenants)
		}
		if len(s.Tenants) != 1 {
			return fmt.Errorf("scenario %s: -tenants override is ambiguous over %d tenant groups", s.Name, len(s.Tenants))
		}
		s.Tenants[0].Count = *o.Tenants
	}
	for i := range s.Tenants {
		w := &s.Tenants[i].Workload
		if o.Stages != nil {
			w.Stages = *o.Stages
		}
		if o.Items != nil {
			w.Items = *o.Items
		}
		if o.Runtime != nil {
			w.Runtime = Duration(*o.Runtime)
		}
		if o.Skew != nil {
			w.Skew = *o.Skew
		}
	}
	if o.FileMB != nil {
		hit := false
		for i := range s.Tenants {
			if sz := &s.Tenants[i].Workload.Sizes; sz.Kind == "constant" {
				sz.MeanMB = *o.FileMB
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("scenario %s: -file-mb override needs a constant-size tenant group", s.Name)
		}
	}
	if o.Spread != nil {
		hit := false
		for i := range s.Tenants {
			if a := s.Tenants[i].Arrivals; a != nil && a.Kind == "staggered" {
				a.Spread = Duration(*o.Spread)
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("scenario %s: -spread override needs a staggered tenant group", s.Name)
		}
	}
	return s.Validate()
}
