package grid

import (
	"sort"

	"repro/internal/sim"
)

// Fabric is the contended WAN fabric: one capacity-limited shared channel
// per ordered (fromGrid, toGrid) pair, built on sim.Resource. When a
// fabric is attached to a catalog (Catalog.SetFabric), stage-in no longer
// models a remote fetch as a pure delay: each leg of the fetch acquires
// the pair's channel for the transfer duration, so concurrent cross-grid
// fetches over the same pair queue FIFO and stretch each other — the
// congestion-collapse mechanism the pure-delay model of PR 4 could not
// express. Channels are created lazily on first use with the fabric's
// stream count, and everything runs on the single-threaded engine, so
// grant order is schedule order and runs stay bit-deterministic.
type Fabric struct {
	eng     *sim.Engine
	streams int
	chans   map[GridPair]*sim.Resource
}

// NewFabric returns a fabric whose channels carry the given number of
// concurrent streams per ordered grid pair. Streams must be positive:
// an uncontended fabric is expressed by not attaching one at all (the
// pure-delay model), not by a zero capacity.
func NewFabric(eng *sim.Engine, streams int) *Fabric {
	if streams <= 0 {
		panic("grid: NewFabric with non-positive streams")
	}
	return &Fabric{eng: eng, streams: streams, chans: make(map[GridPair]*sim.Resource)}
}

// Channel returns the shared channel of the ordered (from, to) grid pair,
// creating it on first use with the fabric's stream count.
func (f *Fabric) Channel(from, to string) *sim.Resource {
	key := GridPair{From: from, To: to}
	if ch, ok := f.chans[key]; ok {
		return ch
	}
	ch := sim.NewResource(f.eng, f.streams)
	f.chans[key] = ch
	return ch
}

// PairStat summarizes one pair channel's observed contention.
type PairStat struct {
	// From and To name the ordered grid pair.
	From, To string
	// Capacity is the channel's stream count.
	Capacity int
	// Grants counts fetch legs the channel has admitted.
	Grants uint64
	// PeakWaiting is the longest observed fetch queue on the channel.
	PeakWaiting int
}

// PairStats returns per-pair channel statistics for every channel used so
// far, in deterministic (from, to) order.
func (f *Fabric) PairStats() []PairStat {
	out := make([]PairStat, 0, len(f.chans))
	//moteur:orderinvariant stats are sorted by (from, to) immediately after collection
	for key, ch := range f.chans {
		out = append(out, PairStat{
			From:        key.From,
			To:          key.To,
			Capacity:    ch.Capacity(),
			Grants:      ch.Grants(),
			PeakWaiting: ch.PeakWaiting(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
