package daemon

import (
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
)

// GridView is one member grid's live operational state for JSON: its
// outage flags and queue depths, the broker's smoothed telemetry
// flattened alongside, and the WAN/staging totals actually paid
// (attempts included); durations are in seconds.
type GridView struct {
	// Name is the member grid's name.
	Name string `json:"name"`
	// Down reports a full outage in progress.
	Down bool `json:"down"`
	// StorageDown reports the storage dimension dark.
	StorageDown bool `json:"storageDown"`
	// Backlog is the UI backlog (accepted, not yet cleared submissions).
	Backlog int `json:"backlog"`
	// Queued counts jobs in the grid's batch queues.
	Queued int `json:"queued"`
	// BusyNodes and TotalNodes are the worker occupancy.
	BusyNodes int `json:"busyNodes"`
	// TotalNodes is the grid's worker count.
	TotalNodes int `json:"totalNodes"`
	// Dispatched, Observed and Rebrokered are the broker's counters for
	// this grid.
	Dispatched int `json:"dispatched"`
	// Observed counts completed jobs that updated the EWMAs.
	Observed int `json:"observed"`
	// Rebrokered counts jobs moved off this grid after terminal failure.
	Rebrokered int `json:"rebrokered"`
	// SubmitEWMASeconds is the smoothed UI submission overhead.
	SubmitEWMASeconds float64 `json:"submitEwmaSeconds"`
	// QueueEWMASeconds is the smoothed batch-queue wait.
	QueueEWMASeconds float64 `json:"queueEwmaSeconds"`
	// Stretch is the observed/nominal WAN transfer-cost ratio (1 when
	// uncontended or unobserved).
	Stretch float64 `json:"stretch"`
	// RemoteInMB is the input bytes fetched over non-local links,
	// attempts included.
	RemoteInMB float64 `json:"remoteInMB"`
	// WANWaitSeconds is the time spent queued on contended WAN channels,
	// attempts included.
	WANWaitSeconds float64 `json:"wanWaitSeconds"`
	// Restages counts backed-off stage-in retry rounds.
	Restages uint64 `json:"restages"`
}

// SEView is one storage element's statistics rendered for JSON.
type SEView struct {
	// Site is "grid/cluster".
	Site string `json:"site"`
	// CapacityMB is the configured capacity (zero means unlimited).
	CapacityMB float64 `json:"capacityMB"`
	// UsedMB is the resident bytes.
	UsedMB float64 `json:"usedMB"`
	// PeakMB is the highest residency observed.
	PeakMB float64 `json:"peakMB"`
	// Files counts resident replicas.
	Files int `json:"files"`
	// Evictions counts capacity-pressure drains.
	Evictions uint64 `json:"evictions"`
	// EvictedMB totals the bytes evictions freed.
	EvictedMB float64 `json:"evictedMB"`
	// Down reports the element currently dark.
	Down bool `json:"down"`
}

// StatusView is the daemon's one live view of the federation: /metrics
// renders it as Prometheus text, and /snapshot and the on-disk state
// snapshots carry it as JSON. Durations are in seconds and job lifecycle
// counts are keyed by status name. It holds no live references, so it
// is safe to hand from the engine goroutine to an HTTP handler.
type StatusView struct {
	// VirtualSeconds is the engine's virtual clock.
	VirtualSeconds float64 `json:"virtualSeconds"`
	// Grids holds one view per member grid, in configuration order.
	Grids []GridView `json:"grids"`
	// JobsByStatus counts dispatched attempts by lifecycle state name.
	JobsByStatus map[string]int `json:"jobsByStatus"`
	// Repairs counts landed replica-repair copies.
	Repairs int `json:"repairs"`
	// RepairedMB totals the megabytes those copies moved.
	RepairedMB float64 `json:"repairedMB"`
	// SE holds per-element storage statistics.
	SE []SEView `json:"se,omitempty"`
}

// statusView assembles the live view of f: per-grid operational state,
// job counts by lifecycle state over every dispatched attempt, replica
// repair accounting and per-element storage statistics. Call it from the
// engine's control flow (between steps).
func statusView(f *federation.Federation) StatusView {
	stats := f.Catalog().SEStats()
	v := StatusView{
		VirtualSeconds: time.Duration(f.Engine().Now()).Seconds(),
		Grids:          make([]GridView, f.Size()),
		JobsByStatus:   make(map[string]int, grid.StatusFailed+1),
		Repairs:        f.Repairs(),
		RepairedMB:     f.RepairedMB(),
		SE:             make([]SEView, len(stats)),
	}
	for i := range v.Grids {
		g, tm := f.Grid(i), f.Telemetry(i)
		v.Grids[i] = GridView{
			Name:              f.GridName(i),
			Down:              g.Down(),
			StorageDown:       g.StorageDown(),
			Backlog:           g.PendingSubmits(),
			Queued:            g.QueuedJobs(),
			BusyNodes:         g.BusyNodes(),
			TotalNodes:        g.TotalNodes(),
			Dispatched:        tm.Dispatched,
			Observed:          tm.Observed,
			Rebrokered:        tm.Rebrokered,
			SubmitEWMASeconds: tm.SubmitEWMA.Seconds(),
			QueueEWMASeconds:  tm.QueueEWMA.Seconds(),
			Stretch:           tm.Stretch(),
			RemoteInMB:        g.RemoteInMB(),
			WANWaitSeconds:    g.WANWait().Seconds(),
			Restages:          g.Restages(),
		}
	}
	var jobs [grid.StatusFailed + 1]int
	for _, r := range f.Records() {
		if s := int(r.Status); s >= 0 && s < len(jobs) {
			jobs[s]++
		}
	}
	for s, n := range jobs {
		if n > 0 {
			v.JobsByStatus[grid.JobStatus(s).String()] = n
		}
	}
	for i, se := range stats {
		v.SE[i] = SEView{
			Site:       se.Site.Grid + "/" + se.Site.Cluster,
			CapacityMB: se.CapacityMB,
			UsedMB:     se.UsedMB,
			PeakMB:     se.PeakMB,
			Files:      se.Files,
			Evictions:  se.Evictions,
			EvictedMB:  se.EvictedMB,
			Down:       se.Down,
		}
	}
	return v
}
