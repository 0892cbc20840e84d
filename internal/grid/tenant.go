package grid

import "repro/internal/sim"

// Tenant is a named submission handle on a shared grid, the unit of
// multi-tenancy: every job submitted through the handle is tagged with the
// tenant's name (JobRecord.Tenant), and the fair-share gate at the
// serialized UI drains tenants round-robin so no tenant's burst starves
// the others. A federation submits each tenant's jobs through the member
// grid's handle; per-tenant statistics live on federation.Tenant.
//
// Handles are memoized: Grid.Tenant returns the same *Tenant for the same
// name, so handle identity can stand in for tenant identity (grouped
// services rely on this when validating that all members target the same
// submission context).
type Tenant struct {
	g    *Grid
	name string
}

// Tenant returns the submission handle for the named tenant, creating it
// on first use. The empty name is the default tenant Grid.Submit uses.
func (g *Grid) Tenant(name string) *Tenant {
	if t, ok := g.tenants[name]; ok {
		return t
	}
	t := &Tenant{g: g, name: name}
	g.tenants[name] = t
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Grid returns the underlying shared grid (catalog, configuration, global
// statistics).
func (t *Tenant) Grid() *Grid { return t.g }

// Catalog returns the shared grid's replica catalog. Together with Submit
// it makes *Tenant satisfy services.Submitter.
func (t *Tenant) Catalog() *Catalog { return t.g.catalog }

// Engine returns the simulation engine the shared grid runs on. With
// Name, Catalog and Submit it lets a campaign workflow builder target a
// bare grid (it is part of campaign.Handle).
func (t *Tenant) Engine() *sim.Engine { return t.g.Eng }

// Submit enters a job tagged with this tenant. Semantics are those of
// Grid.Submit; the only differences are the tenant tag on the record and
// the fair-share queue the submission waits in.
func (t *Tenant) Submit(spec JobSpec, done func(*JobRecord)) *JobRecord {
	return t.g.submit(t.name, spec, done)
}
