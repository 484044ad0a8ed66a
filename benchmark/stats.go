package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over the runs of a set: its
// median, first and third quartiles, and the sample count.
type summary struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize returns the median and quartiles of values. Quartiles follow
// Python's statistics.quantiles(values, n=4) with its default "exclusive"
// method, the rule the benchmark's spread is judged by; a single value is its
// own quartiles.
func summarize(values []float64) summary {
	s := summary{N: len(values), Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		s.Median, s.Q1, s.Q3 = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		s.Median = x[n/2]
	} else {
		s.Median = (x[n/2-1] + x[n/2]) / 2
	}
	if n == 1 {
		s.Q1, s.Q3 = x[0], x[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
