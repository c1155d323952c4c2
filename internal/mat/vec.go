package mat

import (
	"fmt"
	"math"
)

// Vector helpers. All functions operate on plain []float64 slices; functions
// that combine two vectors panic on length mismatch, because a mismatch is
// always a programming error in this codebase (shapes are static).

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot: len %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Mean returns the arithmetic mean of a (0 for empty input).
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s / float64(len(a))
}

// Variance returns the population variance of a (0 for len < 2).
func Variance(a []float64) float64 {
	if len(a) < 2 {
		return 0
	}
	m := Mean(a)
	s := 0.0
	for _, v := range a {
		d := v - m
		s += d * d
	}
	return s / float64(len(a))
}

// ArgMax returns the index of the maximum element (-1 for empty input).
// Ties resolve to the lowest index.
func ArgMax(a []float64) int {
	if len(a) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(a); i++ {
		if a[i] > a[best] {
			best = i
		}
	}
	return best
}

// MaxVal returns the maximum element (-Inf for empty input).
func MaxVal(a []float64) float64 {
	if len(a) == 0 {
		return math.Inf(-1)
	}
	return a[ArgMax(a)]
}
