package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HDR-style): each power-of-two magnitude
// is split into 2^histSubBits linear sub-buckets, so any recorded
// value lands in a bucket whose width is at most 1/16th of the value —
// a bounded ~6.25% relative error on any quantile, with the bucket
// midpoint halving that. Values 0..15 get exact unit buckets.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: rows 1..60
	// of 16 sub-buckets above the 16 exact low buckets.
	histBuckets = (64-histSubBits)*histSubCount + histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	k := bits.Len64(v) - 1 // 2^k <= v < 2^(k+1), k >= histSubBits
	row := k - histSubBits + 1
	sub := (v >> uint(k-histSubBits)) & (histSubCount - 1)
	return row<<histSubBits + int(sub)
}

// bucketMid returns the midpoint of a bucket — the value a quantile
// falling in that bucket reports.
func bucketMid(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	row := i >> histSubBits
	sub := uint64(i & (histSubCount - 1))
	k := row + histSubBits - 1
	lo := uint64(1)<<uint(k) + sub<<uint(k-histSubBits)
	width := uint64(1) << uint(k-histSubBits)
	return int64(lo + width/2)
}

// Histogram is a lock-free log-linear histogram. Observe is one atomic
// add on the bucket plus count/sum updates — no locks, no allocation.
// All methods are nil-safe no-ops.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// HistSnapshot is a point-in-time summary of one histogram. Sum, Min,
// Max, and the quantiles are exact for the min/max/sum/count fields
// and bucket-midpoint approximations (<= ~6.25% relative error) for
// the quantiles. For metrics named *_ns the values are nanoseconds.
type HistSnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
	P999  int64  `json:"p999"`
}

// Snapshot summarizes the histogram. Concurrent Observes may straddle
// the bucket walk; each bucket is still read atomically.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil || h.count.Load() == 0 {
		return s
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.Count = total
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	quantile := func(q float64) int64 {
		rank := uint64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > rank {
				v := bucketMid(i)
				// Clamp to the observed extremes: the top and bottom
				// buckets' midpoints can overshoot them.
				if v < s.Min {
					v = s.Min
				}
				if v > s.Max {
					v = s.Max
				}
				return v
			}
		}
		return s.Max
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	s.P999 = quantile(0.999)
	return s
}
