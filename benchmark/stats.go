package main

import (
	"math"
	"sort"
)

// beyondRule is the guide's rule for tails: a percentile is reported only
// when at least this many samples lie beyond it.
const beyondRule = 10

// pctl is one percentile of a sample with the evidence behind it.
type pctl struct {
	P         float64 // e.g. 0.9
	Value     float64
	N         int  // samples
	Beyond    int  // samples strictly above the selected rank
	Supported bool // Beyond >= beyondRule
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile selects the nearest-rank p-quantile of v (0 < p < 1).
func percentile(v []float64, p float64) pctl {
	n := len(v)
	if n == 0 {
		return pctl{P: p}
	}
	s := sortedCopy(v)
	// The epsilon keeps p*n that is a whole number in exact arithmetic (0.9
	// of 100) from being rounded up by its binary representation.
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond := n - 1 - rank
	return pctl{P: p, Value: s[rank], N: n, Beyond: beyond, Supported: beyond >= beyondRule}
}

func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver uses for spreads. It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	m := len(v)
	if m < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(v)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median; ok is false
// with fewer than two values or a zero median.
func spread(v []float64) (float64, bool) {
	q1, _, q3, ok := quartiles(v)
	med := median(v)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// lateThresholdMs is how far past its due time a dispatch must start to count
// as late. On a box whose cores the daemons keep busy, a sleeping generator
// wakes up to a scheduler slice or two (a few ms) after its timer; half of
// cluster-mixed's 20 ms arrival gap separates that from a generator that has
// fallen behind its schedule. late_p99_ms reports the small delays.
const lateThresholdMs = 10

// lateness summarises how late an open-loop generator ran: the share of
// dispatches later than lateThresholdMs and the p99 of the delays (ms).
func lateness(delaysMs []float64) (frac, p99 float64) {
	if len(delaysMs) == 0 {
		return 0, 0
	}
	late := 0
	for _, d := range delaysMs {
		if d > lateThresholdMs {
			late++
		}
	}
	return float64(late) / float64(len(delaysMs)), percentile(delaysMs, 0.99).Value
}
