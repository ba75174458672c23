package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of samples by linear
// interpolation between closest ranks (the rule numpy and Python's
// statistics module call "inclusive"). It sorts a copy, leaving
// samples in their recorded order, and returns NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(samples[hi], 1) {
		return samples[hi] // keeps +Inf (a refused send) from becoming NaN
	}
	return samples[lo] + (samples[hi]-samples[lo])*frac
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ratio divides, returning 0 instead of NaN or Inf for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
