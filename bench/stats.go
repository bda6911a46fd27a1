package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported as supported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples of n that lie past the q-quantile.
func beyond(n int, q float64) int { return int(float64(n)*(1-q) + 1e-9) }

// quartiles returns the three cut points of xs into four groups exactly as
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so spreads computed here match ones computed from the printed
// results.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// metric is one named measurement with its unit. A percentile also carries
// its sample count and rank, so the percentile rule can be checked.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int     // samples behind the value; 0 when not a sample statistic
	q       float64 // the percentile's rank in (0,1); 0 when not a percentile
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentileMetric is the q-quantile of durations in milliseconds.
func percentileMetric(name string, ds []time.Duration, q float64) metric {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return metric{name: name, value: quantile(xs, q), unit: "ms", samples: len(xs), q: q}
}

// printMetrics writes one human-readable line per metric.
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.q > 0 {
			b := beyond(m.samples, m.q)
			note = fmt.Sprintf("  (p%g of %d samples, %d beyond", m.q*100, m.samples, b)
			if b < minBeyond {
				note += "; fewer than 10 beyond"
			}
			note += ")"
		} else if m.samples > 0 {
			note = fmt.Sprintf("  (%d samples)", m.samples)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-7s%s\n", m.name, m.value, m.unit, note)
	}
}
