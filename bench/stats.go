package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" interpolation of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread check is stated in. With fewer than two
// values both quartiles equal the single value (NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread returns the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailPercentile is the highest of the percentiles 50, 90, 99 and 99.9
// that still has at least ten samples beyond it among n samples: the tail
// a timing may be reported at without resting on a handful of outliers.
// It returns 0 when even the median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		rank := (permille*n + 999) / 1000 // nearest rank, as in percentile
		if n-rank >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}
