package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the acceptance
// check's. It needs at least two values.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

// tailPercentile is the highest whole percentile p for which at least
// ten of n samples lie beyond the nearest-rank p-th percentile (see
// percentile), i.e. n - max(1, ceil(p·n/100)) >= 10. It returns -1 when
// n < 11: no percentile has ten samples beyond it.
func tailPercentile(n int) int {
	for p := 99; p >= 0; p-- {
		rank := max(1, (p*n+99)/100)
		if n-rank >= 10 {
			return p
		}
	}
	return -1
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// [0, 100]); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// withinBound reports whether cur is no worse than base by more than
// bound, a share of base. better is "lower" or "higher".
func withinBound(base, cur float64, better string, bound float64) (bool, error) {
	switch better {
	case "lower":
		return cur <= base*(1+bound), nil
	case "higher":
		return cur >= base*(1-bound), nil
	default:
		return false, fmt.Errorf("better must be \"lower\" or \"higher\", got %q", better)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: a
// letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return metricName.MatchString(s) }
