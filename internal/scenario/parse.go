package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/grid"
)

// ErrParse marks a malformed CLI scenario fragment (an -outage window, a
// -pairs matrix entry, a policy name); callers distinguish user input
// errors from world-construction failures with errors.Is.
var ErrParse = errors.New("scenario: parse error")

// ParseOutage reads a name@start+duration outage window ("+duration" is
// optional: without it the grid never recovers) into a compute outage
// of a spec. It is the parser behind cmd/federation's -outage and
// -se-outage flags.
func ParseOutage(s string) (OutageSpec, error) {
	name, window, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return OutageSpec{}, fmt.Errorf("%w: want name@start+duration, got %q", ErrParse, s)
	}
	start, dur, recovers := strings.Cut(window, "+")
	at, err := time.ParseDuration(start)
	if err != nil {
		return OutageSpec{}, fmt.Errorf("%w: bad start in %q: %w", ErrParse, s, err)
	}
	if at < 0 {
		return OutageSpec{}, fmt.Errorf("%w: negative start in %q", ErrParse, s)
	}
	o := OutageSpec{Grid: name, At: Duration(at)}
	if recovers {
		d, err := time.ParseDuration(dur)
		if err != nil {
			return OutageSpec{}, fmt.Errorf("%w: bad duration in %q: %w", ErrParse, s, err)
		}
		if d <= 0 {
			return OutageSpec{}, fmt.Errorf("%w: non-positive duration in %q", ErrParse, s)
		}
		o.For = Duration(d)
	}
	return o, nil
}

// ParsePairs reads a from>to=MBps:latency[,...] per-pair override list
// into the pairs of a links section. It is the parser behind
// cmd/federation's -pairs flag.
func ParsePairs(s string) ([]PairSpec, error) {
	var pairs []PairSpec
	for _, entry := range strings.Split(s, ",") {
		pair, link, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("%w: want from>to=MBps:latency, got %q", ErrParse, entry)
		}
		from, to, ok := strings.Cut(pair, ">")
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("%w: bad pair in %q", ErrParse, entry)
		}
		mbps, lat, ok := strings.Cut(link, ":")
		if !ok {
			return nil, fmt.Errorf("%w: bad link in %q (want MBps:latency)", ErrParse, entry)
		}
		bw, err := strconv.ParseFloat(mbps, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad bandwidth in %q: %w", ErrParse, entry, err)
		}
		if bw <= 0 {
			// Link.Cost treats MBps <= 0 as latency-only (infinite
			// bandwidth), so a typo would silently run a different
			// experiment than the table claims.
			return nil, fmt.Errorf("%w: non-positive bandwidth in %q", ErrParse, entry)
		}
		latency, err := time.ParseDuration(lat)
		if err != nil {
			return nil, fmt.Errorf("%w: bad latency in %q: %w", ErrParse, entry, err)
		}
		if latency < 0 {
			return nil, fmt.Errorf("%w: negative latency in %q", ErrParse, entry)
		}
		pairs = append(pairs, PairSpec{From: from, To: to, MBps: bw, Latency: Duration(latency)})
	}
	return pairs, nil
}

// ParsePolicy resolves a broker policy name (ranked, ranked-blind,
// ranked-safe, backlog, rr, pinned:N), rejecting a pinned index outside
// the grids-member federation — Pinned would clamp it to grid 0 and a
// sweep row would silently describe a different experiment.
func ParsePolicy(name string, grids int) (federation.Policy, error) {
	switch {
	case name == "ranked":
		return federation.Ranked(), nil
	case name == "ranked-blind":
		return federation.RankedLocalityBlind(), nil
	case name == "ranked-safe":
		return federation.RankedSafe(), nil
	case name == "backlog":
		return federation.LeastBacklog(), nil
	case name == "rr":
		return federation.RoundRobin(), nil
	case strings.HasPrefix(name, "pinned:"):
		idx, err := strconv.Atoi(strings.TrimPrefix(name, "pinned:"))
		if err != nil {
			return nil, fmt.Errorf("%w: bad pinned index in %q: %w", ErrParse, name, err)
		}
		if idx < 0 || idx >= grids {
			return nil, fmt.Errorf("%w: pinned index %d outside the %d-grid federation", ErrParse, idx, grids)
		}
		return federation.Pinned(idx), nil
	}
	return nil, fmt.Errorf("%w: unknown policy %q (want ranked|ranked-blind|ranked-safe|backlog|rr|pinned:N)", ErrParse, name)
}

// ParseFloats parses a comma-separated float list (sweep axis values).
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad value %q", ErrParse, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseEviction resolves an eviction policy name (lru, popularity).
func ParseEviction(name string) (grid.EvictionPolicy, error) {
	switch name {
	case "", "lru":
		return grid.EvictLRU(), nil
	case "popularity":
		return grid.EvictPopularity(), nil
	}
	return nil, fmt.Errorf("%w: unknown eviction policy %q (want lru|popularity)", ErrParse, name)
}
