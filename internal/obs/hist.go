package obs

import (
	"sync/atomic"
	"time"
)

// bucketBounds are the histogram's fixed upper bounds in seconds, spanning
// microsecond-scale stages to minute-scale batch requests. Every Histogram
// shares them: snapshots from different histograms merge bucket-for-bucket,
// and the Prometheus writer can render any snapshot without carrying bounds
// around. The implicit final bucket is +Inf.
var bucketBounds = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30, 60,
}

// boundsNS is bucketBounds in integer nanoseconds, the unit Observe compares
// against without floating-point work on the hot path.
var boundsNS = func() []int64 {
	out := make([]int64, len(bucketBounds))
	for i, b := range bucketBounds {
		out[i] = int64(b * 1e9)
	}
	return out
}()

// BucketBounds returns the shared upper bounds in seconds (excluding the
// implicit +Inf bucket). The returned slice is shared; do not mutate.
func BucketBounds() []float64 { return bucketBounds }

// Histogram is a lock-free fixed-bucket latency histogram: Observe is two
// atomic adds plus a short scan, cheap enough for per-sample and per-lookup
// call sites. All methods are safe for concurrent use and safe on a nil
// receiver (a nil *Histogram ignores observations and snapshots to zero).
type Histogram struct {
	counts [numBuckets]atomic.Int64 // aligned with bucketBounds; last = +Inf
	sumNS  atomic.Int64
}

// numBuckets is len(bucketBounds)+1 (the +Inf bucket); a compile-time array
// size, pinned against the bounds list by TestBucketBoundsShape.
const numBuckets = 22

// NewHistogram returns an empty histogram over the shared bucket bounds.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero (they can
// only arise from clock anomalies and must not corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for i < len(boundsNS) && ns > boundsNS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(ns)
}

// Quantile estimates the q-quantile of the recorded distribution in seconds
// (0 while empty) — the live read the failover client derives its hedging
// delay from, without allocating a full snapshot per decision.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	return s.quantile(q)
}

// HistSnapshot is a point-in-time copy of a histogram, JSON-ready and
// mergeable. Buckets holds per-bucket (non-cumulative) counts aligned with
// BucketBounds plus a final +Inf bucket; the quantile fields are estimated
// by linear interpolation within the landing bucket.
type HistSnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50_seconds"`
	P90        float64 `json:"p90_seconds"`
	P99        float64 `json:"p99_seconds"`
	Buckets    []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may straddle the copy; each observation lands entirely in one snapshot or
// the next, so counts are never torn against the sum by more than the
// in-flight observations.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Buckets: make([]int64, numBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.SumSeconds = float64(h.sumNS.Load()) / 1e9
	s.fillQuantiles()
	return s
}

// Add returns the bucket-wise sum of two snapshots with quantiles
// re-estimated over the merged distribution — the aggregation the engine
// uses to fold per-graph cache histograms into one metrics block.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	if o.Count == 0 && len(o.Buckets) == 0 {
		return s
	}
	if s.Count == 0 && len(s.Buckets) == 0 {
		return o
	}
	out := HistSnapshot{
		Count:      s.Count + o.Count,
		SumSeconds: s.SumSeconds + o.SumSeconds,
		Buckets:    make([]int64, numBuckets),
	}
	copy(out.Buckets, s.Buckets)
	for i := 0; i < len(o.Buckets) && i < len(out.Buckets); i++ {
		out.Buckets[i] += o.Buckets[i]
	}
	out.fillQuantiles()
	return out
}

func (s *HistSnapshot) fillQuantiles() {
	s.P50 = s.quantile(0.50)
	s.P90 = s.quantile(0.90)
	s.P99 = s.quantile(0.99)
}

// quantile estimates the q-quantile by locating the bucket holding the
// target rank and interpolating linearly inside it. Observations in the
// +Inf bucket report the last finite bound (there is nothing to
// interpolate toward).
func (s *HistSnapshot) quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bucketBounds) {
			return bucketBounds[len(bucketBounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := bucketBounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bucketBounds[len(bucketBounds)-1]
}
