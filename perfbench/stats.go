package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 128 ns get one bucket each, and every power-of-two band above is split
// into 64 linear sub-buckets, so a quantile read from it is within 1.6%
// of the recorded value. It never allocates after creation, so recording
// into it does not perturb the allocation and GC counts the benchmark
// reports.
type hist struct {
	counts [64*64 + 128]uint64
	n      uint64
	sum    float64
	max    int64
}

func bucketOf(ns int64) int {
	if ns < 128 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 7
	return shift*64 + int(ns>>shift)
}

// bucketBounds returns bucket i's lower bound and width in nanoseconds.
func bucketBounds(i int) (low, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	shift := i/64 - 1
	return float64(int64(i%64+64) << shift), float64(int64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	ns := int64(d)
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in milliseconds (0 for an empty
// histogram), interpolated linearly inside its bucket. The top sample is
// reported exactly.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return float64(h.max) / 1e6
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			low, width := bucketBounds(i)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return (low + width*frac) / 1e6
		}
		seen += c
	}
	return float64(h.max) / 1e6
}

// countAbove returns how many samples exceed d (to bucket precision).
func (h *hist) countAbove(d time.Duration) uint64 {
	var n uint64
	for i := bucketOf(int64(d)) + 1; i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return n
}

func (h *hist) meanMs() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n) / 1e6
}

// quantileOf returns the q-quantile of xs, interpolated linearly between
// order statistics (0 when empty); xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
