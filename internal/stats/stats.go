// Package stats provides the streaming statistics used throughout the
// simulator: log-bucketed latency histograms with percentile queries, simple
// counters with windowed rates, EWMAs, and time-series recorders for the
// experiment harnesses.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (typically latencies in nanoseconds). Buckets grow geometrically by ~4.6%
// (64 buckets per power of two is overkill; we use 16), giving percentile
// error under 5% which is ample for control decisions and reporting.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	sumsq  float64
	max    int64
	min    int64

	// One-entry memo for Observe: steady-state workloads record long runs
	// of identical samples, so the previous value's bucket and float form
	// are almost always this sample's too. The zero value (0 → bucket 0,
	// 0.0) is self-consistent, so no sentinel is needed.
	lastV int64
	lastB int
	lastF float64
}

const (
	histSubBuckets = 16 // buckets per power of two
	histMaxPow     = 50 // covers up to ~2^50 ns (~13 days)
	histBuckets    = histSubBuckets * histMaxPow
)

// QuantileRelError is the histogram's documented quantile error bound: a
// bucket spans at most a 1/histSubBuckets relative slice of its power of
// two, and Quantile answers with the bucket's lower edge, so the reported
// quantile underestimates the true sample quantile by at most this relative
// fraction. Merging histograms (Merge) is lossless at the bucket level, so
// merged quantiles carry exactly the same bound — the property the shard
// merge tests pin.
const QuantileRelError = 1.0 / histSubBuckets

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v < 1 {
		v = 1
	}
	// floor(log2(v)) and the sub-bucket within the power of two.
	pow := 63 - bits.LeadingZeros64(uint64(v))
	var sub int64
	if pow > 0 {
		sub = (v - (1 << uint(pow))) * histSubBuckets >> uint(pow)
	}
	b := pow*histSubBuckets + int(sub)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketLow(b int) int64 {
	pow := b / histSubBuckets
	sub := b % histSubBuckets
	base := int64(1) << uint(pow)
	return base + int64(sub)*base/histSubBuckets
}

// Observe records a sample.
func (h *Histogram) Observe(v int64) {
	if v != h.lastV {
		h.lastV = v
		h.lastB = bucketOf(v)
		h.lastF = float64(v)
	}
	h.counts[h.lastB]++
	h.total++
	h.sum += h.lastF
	h.sumsq += h.lastF * h.lastF
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Stddev returns the sample standard deviation, 0 for fewer than two
// samples.
func (h *Histogram) Stddev() float64 {
	if h.total < 2 {
		return 0
	}
	n := float64(h.total)
	v := (h.sumsq - h.sum*h.sum/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Max returns the largest observed sample, 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest observed sample, 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1), or 0 if
// the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > rank {
			return bucketLow(b)
		}
		seen += c
	}
	return h.max
}

// Reset clears all samples, leaving h in exactly NewHistogram's state
// (the Observe memo included) while keeping its bucket array.
func (h *Histogram) Reset() {
	clear(h.counts)
	*h = Histogram{counts: h.counts, min: math.MaxInt64}
}

// Merge folds src into h. Histograms are mergeable sketches: bucket counts
// and moment sums are additive, so merging per-shard histograms in any
// grouping yields bucket-identical state to observing the whole population
// into one histogram — percentile queries on the merged sketch equal the
// unsharded ones exactly (and both carry the QuantileRelError bound vs the
// true sample quantiles). Extrema merge exactly too. The one caveat is
// float addition order on sum/sumsq: callers that need byte-identical
// Mean/Stddev across runs must merge shards in a fixed order, which the
// fleet aggregator does (shard-index order).
func (h *Histogram) Merge(src *Histogram) { src.AddTo(h) }

// AddTo merges h into dst (Merge with the receiver roles swapped).
func (h *Histogram) AddTo(dst *Histogram) {
	for i, c := range h.counts {
		dst.counts[i] += c
	}
	dst.total += h.total
	dst.sum += h.sum
	dst.sumsq += h.sumsq
	if h.total > 0 {
		if h.max > dst.max {
			dst.max = h.max
		}
		if h.min < dst.min {
			dst.min = h.min
		}
	}
}

// EWMA is an exponentially weighted moving average. The zero value with
// Alpha set is usable; the first Update seeds the average.
type EWMA struct {
	Alpha  float64
	value  float64
	primed bool
}

// Update feeds a sample and returns the new average.
func (e *EWMA) Update(v float64) float64 {
	if !e.primed {
		e.value = v
		e.primed = true
		return v
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether any sample has been observed.
func (e *EWMA) Primed() bool { return e.primed }

// Series records (x, y) points for plotting/printing experiment results.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// MeanY returns the mean of Y values, 0 if empty.
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Y {
		sum += v
	}
	return sum / float64(len(s.Y))
}

// MinY and MaxY return extrema of Y, 0 if empty.
func (s *Series) MinY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (s *Series) MaxY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// QuantileY returns the q-quantile of the Y values (exact, by sorting a
// copy), 0 if empty.
func (s *Series) QuantileY(q float64) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	ys := append([]float64(nil), s.Y...)
	sort.Float64s(ys)
	idx := int(q * float64(len(ys)))
	if idx >= len(ys) {
		idx = len(ys) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return ys[idx]
}

// Counter counts events and exposes windowed rates.
type Counter struct {
	total uint64
	mark  uint64
}

// Inc adds n.
func (c *Counter) Inc(n uint64) { c.total += n }

// Total returns the lifetime count.
func (c *Counter) Total() uint64 { return c.total }

// TakeWindow returns the count since the previous TakeWindow (or since
// creation) and starts a new window.
func (c *Counter) TakeWindow() uint64 {
	d := c.total - c.mark
	c.mark = c.total
	return d
}

// FormatBytes renders a byte count with binary units for reports.
func FormatBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	return fmt.Sprintf("%.1f%s", b, units[i])
}
