// Package rng provides a small, deterministic random number generator and
// the distributions the grid simulator needs.
//
// The generator is a xoshiro256** seeded through splitmix64. It is
// implemented here rather than taken from math/rand so that simulation
// results are bit-for-bit reproducible regardless of the Go release, and so
// that independent component streams can be forked cheaply from a single
// experiment seed.
package rng

import "math"

// Source is a deterministic pseudo-random source (xoshiro256**).
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby seeds
// produce unrelated streams.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A xoshiro state of all zeros would be absorbing; splitmix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

// Fork derives an independent child stream. The child is seeded from the
// parent's next output mixed with the label, so forking is deterministic and
// order-dependent by construction.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simulation draws are not hot enough to matter, so use rejection on the
	// top bits to avoid modulo bias.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the polar (Marsaglia) method.
func (r *Source) Normal(mean, sd float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + sd*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)). Note mu and sigma are the parameters
// of the underlying normal, not the mean/sd of the log-normal itself; use
// LogNormalMeanSD for the latter.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// LogNormalMeanSD returns a log-normal value with the given mean and
// standard deviation of the log-normal distribution itself. It panics
// unless mean > 0. Callers drawing the same shape repeatedly should solve
// it once with NewLogNormal.
func (r *Source) LogNormalMeanSD(mean, sd float64) float64 {
	return NewLogNormal(mean, sd).Draw(r)
}

// LogNormal is a log-normal distribution given by its own mean and
// standard deviation, with the underlying normal's parameters solved once
// rather than per draw. The zero value always draws 0.
type LogNormal struct {
	mean, mu, sigma float64
	spread          bool // sd > 0; otherwise every draw is mean
}

// NewLogNormal solves the log-normal with the given mean and standard
// deviation. It panics unless mean > 0; sd <= 0 gives the degenerate
// distribution that always draws mean.
func NewLogNormal(mean, sd float64) LogNormal {
	if mean <= 0 {
		panic("rng: log-normal requires mean > 0")
	}
	if sd <= 0 {
		return LogNormal{mean: mean}
	}
	v := sd * sd / (mean * mean)
	sigma2 := math.Log(1 + v)
	mu := math.Log(mean) - sigma2/2
	return LogNormal{mean: mean, mu: mu, sigma: math.Sqrt(sigma2), spread: true}
}

// Draw returns one value of the distribution from r.
func (d LogNormal) Draw(r *Source) float64 {
	if !d.spread {
		return d.mean
	}
	return r.LogNormal(d.mu, d.sigma)
}

// Exponential returns an exponentially distributed value with the given mean.
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential requires mean > 0")
	}
	u := r.Float64()
	// Float64 is in [0,1); flip so the argument to Log is in (0,1].
	return -mean * math.Log(1-u)
}

// TruncNormal returns a normal value truncated (by resampling) to [lo, hi].
// It panics if lo > hi. If the acceptance region is far in the tail the
// resampling loop could spin; callers use it for mild truncations only, and
// after 1024 rejected draws it falls back to clamping.
func (r *Source) TruncNormal(mean, sd, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	for i := 0; i < 1024; i++ {
		v := r.Normal(mean, sd)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := r.Normal(mean, sd)
	return math.Min(math.Max(v, lo), hi)
}

// Perm returns a random permutation of [0,n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
