package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// TenantSnapshot is one tenant's progress inside a Snapshot: the live
// campaign.TenantStatus with the terminal error flattened to a string so
// the snapshot round-trips through JSON.
type TenantSnapshot struct {
	// Name is the tenant's name.
	Name string `json:"name"`
	// ArrivalSeconds is the tenant's specified arrival, in virtual
	// seconds after the campaign start.
	ArrivalSeconds float64 `json:"arrivalSeconds"`
	// Finished reports whether the tenant reached a terminal state.
	Finished bool `json:"finished"`
	// FinishSeconds is the terminal instant in virtual seconds after the
	// campaign start (zero while running).
	FinishSeconds float64 `json:"finishSeconds,omitempty"`
	// Error is the tenant's terminal error text, empty on success or
	// while running.
	Error string `json:"error,omitempty"`
}

// CampaignSnapshot is the boot campaign's progress inside a Snapshot.
type CampaignSnapshot struct {
	// Done reports whether every tenant reached a terminal state.
	Done bool `json:"done"`
	// Remaining counts tenants still running.
	Remaining int `json:"remaining"`
	// Tenants is the per-tenant progress, in specification order.
	Tenants []TenantSnapshot `json:"tenants"`
}

// Snapshot is moteurd's periodic JSON state dump: enough to reconstruct
// what the daemon was doing — how far virtual time had advanced, the
// campaign's progress, and the full federation Status — without
// replaying the run. The format is documented in DESIGN.md ("The online
// broker daemon").
type Snapshot struct {
	// Scenario is the served scenario's name.
	Scenario string `json:"scenario"`
	// Seq is the snapshot's sequence number within this daemon run,
	// starting at 1.
	Seq int `json:"seq"`
	// Final marks the shutdown snapshot (Stop, SIGTERM, or a Replay
	// run's campaign completing).
	Final bool `json:"final"`
	// Wall is the wall-clock instant the snapshot was taken (RFC 3339).
	Wall string `json:"wall"`
	// VirtualSeconds is the engine's virtual clock at the snapshot.
	VirtualSeconds float64 `json:"virtualSeconds"`
	// EventsFired counts engine events executed so far.
	EventsFired uint64 `json:"eventsFired"`
	// PendingEvents counts events scheduled and not yet fired.
	PendingEvents int `json:"pendingEvents"`
	// Injected counts external operations admitted through the injection
	// queue (submissions, outage commands, status reads).
	Injected uint64 `json:"injected"`
	// Submissions counts the jobs submitted over HTTP among them.
	Submissions uint64 `json:"submissions"`
	// Campaign is the boot campaign's progress.
	Campaign CampaignSnapshot `json:"campaign"`
	// Federation is the full live federation status (per-grid operational
	// state and telemetry, job lifecycle counts, repair and SE
	// accounting).
	Federation StatusView `json:"federation"`
}

// snapshot assembles the current Snapshot. Must run inside the engine's
// control flow (driver goroutine or an injected event).
func (d *Daemon) snapshot(final bool) Snapshot {
	d.snapSeq++
	ts := d.exec.Tenants()
	cs := CampaignSnapshot{
		Done:      d.exec.Done(),
		Remaining: d.exec.Remaining(),
		Tenants:   make([]TenantSnapshot, len(ts)),
	}
	for i, t := range ts {
		cs.Tenants[i] = TenantSnapshot{
			Name:           t.Name,
			ArrivalSeconds: t.Arrival.Seconds(),
			Finished:       t.Finished,
			FinishSeconds:  t.Finish.Seconds(),
		}
		if t.Err != nil {
			cs.Tenants[i].Error = t.Err.Error()
		}
	}
	return Snapshot{
		Scenario:       d.cfg.World.Spec.Name,
		Seq:            d.snapSeq,
		Final:          final,
		Wall:           d.clock.Now().UTC().Format(time.RFC3339Nano),
		VirtualSeconds: time.Duration(d.eng.Now()).Seconds(),
		EventsFired:    d.eng.Fired(),
		PendingEvents:  d.eng.Pending(),
		Injected:       d.injected,
		Submissions:    d.submissions,
		Campaign:       cs,
		Federation:     statusView(d.fed),
	}
}

// writeSnapshot takes a snapshot and persists it to SnapshotDir:
// snapshot-NNNNNN.json for the sequence, plus latest.json replaced
// atomically (write-temp-then-rename) so a concurrent reader never sees
// a torn file.
func (d *Daemon) writeSnapshot(final bool) error {
	snap := d.snapshot(final)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := d.cfg.SnapshotDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".snapshot.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("snapshot-%06d.json", snap.Seq))
	if err := os.Rename(tmp, name); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "latest.json"))
}
