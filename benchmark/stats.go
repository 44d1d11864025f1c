package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the smallest sample a p90 is reported from: nearest-rank
// p90 then has at least ten samples beyond it.
const minTailSamples = 100

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of vs.
// It refuses a tail percentile (p > 50) of fewer than minTailSamples values
// and any percentile of an empty sample.
func percentile(vs []float64, p float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %g out of (0,100]", p)
	}
	if p > 50 && len(vs) < minTailSamples {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, minTailSamples, len(vs))
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[rank-1], nil
}

// p50 is the median by nearest rank, 0 for an empty sample. Per-layer
// metrics use it: a layer that a workload never calls reports 0.
func p50(vs []float64) float64 {
	v, err := percentile(vs, 50)
	if err != nil {
		return 0
	}
	return v
}

// p90OrMax is the p90 when the sample supports one and the maximum
// otherwise; only per-layer metrics, which carry no bound, use it.
func p90OrMax(vs []float64) float64 {
	if v, err := percentile(vs, 90); err == nil {
		return v
	}
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// spread summarises repeated runs of one metric for the calibration table.
type spread struct {
	Min, Q1, Median, Q3, Max float64
}

// summarise computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance driver uses, so CALIBRATION.md shows the number it will see.
func summarise(vs []float64) spread {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return spread{Min: s[0], Q1: q(1), Median: q(2), Q3: q(3), Max: s[n-1]}
}

// iqrShare is (Q3-Q1)/median, the spread the driver bounds.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// rangeShare is (max-min)/median.
func (s spread) rangeShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
