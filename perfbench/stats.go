package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ds by linear
// interpolation between closest ranks, in milliseconds. It does not
// modify ds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	v := float64(s[lo]) + frac*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// geomean returns the geometric mean of positive ratios (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
