package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method), or NaN
// for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive"
// method, so spreads computed here agree with the same arithmetic done
// in Python over the result files.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// CPython's exclusive method, in its exact integer arithmetic: the
	// rank is clamped to 1..n-1 and delta may then fall outside 0..4,
	// which extrapolates for tiny samples just as Python does.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// geomean is the geometric mean of positive values; NaN when any value
// is not positive or the slice is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
