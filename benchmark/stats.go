package main

import (
	"math"
	"slices"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// tailLadder is the set of tail percentiles the rule chooses from.
var tailLadder = []float64{0.9, 0.99, 0.999, 0.9999}

// supports reports whether n samples support quantile q under the rule.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tailQuantile returns the highest ladder percentile that n samples
// support, or 0 when even p90 is unsupported.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 when
// empty): the smallest sample with at least q*n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// summary describes one timing: its median, the rule's tail percentile,
// and the sample count behind both.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// dist is a list of raw samples in one unit.
type dist []float64

func (d dist) sorted() []float64 {
	s := slices.Clone([]float64(d))
	slices.Sort(s)
	return s
}

func (d dist) summary() summary {
	s := d.sorted()
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	if q := tailQuantile(len(s)); q > 0 {
		out.TailQ, out.Tail = q, quantile(s, q)
	}
	return out
}

func (d dist) q(q float64) float64 { return quantile(d.sorted(), q) }

// histSnap is the part of the program's histogram capture (returned by
// PipelineLatencies and the metrics registry) the benchmark reads; its
// quantiles are the program's bucket-interpolated estimates.
type histSnap interface {
	Quantile(q float64) float64
}

// histSummary summarizes a histogram capture of n samples, scaled to the
// metric's unit.
func histSummary(h histSnap, n uint64, scale float64) summary {
	out := summary{N: int(n)}
	if n == 0 {
		return out
	}
	out.P50 = h.Quantile(0.5) * scale
	if q := tailQuantile(int(n)); q > 0 {
		out.TailQ, out.Tail = q, h.Quantile(q)*scale
	}
	return out
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return dist(xs).q(0.5) }
