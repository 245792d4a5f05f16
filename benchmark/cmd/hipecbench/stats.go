package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds: 128
// sub-buckets per octave, so a bucket is at most 0.8 % wide. It is fixed
// size so that recording a sample never allocates — the harness must not
// show up in allocs_per_op.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 36 // values up to 2^42 ns, about 73 minutes
	histBuckets = (histOctaves + 1) * histSub
)

type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

// bucketOf maps a value to its bucket. Values below histSub get a bucket
// each; above that, bucket width doubles every octave.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	idx := (shift+1)*histSub + int(v>>uint(shift)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketBounds is the inverse of bucketOf: the half-open value range
// [lo, hi) a bucket covers.
func bucketBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	shift := idx/histSub - 1
	mant := uint64(idx%histSub + histSub)
	return float64(mant << uint(shift)), float64((mant + 1) << uint(shift))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile (0 < q <= 1), interpolating linearly by
// rank inside the bucket that holds it, so the result is not pinned to
// bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// midMean is the mean of the samples between the lo- and hi-quantiles (the
// middle 80 % for 0.1, 0.9), taking a bucket's samples as spread evenly over
// it. Unlike a percentile it moves smoothly when a distribution has two
// modes and the share of one of them changes: a percentile that sits where
// the modes meet jumps from one to the other.
func (h *hist) midMean(lo, hi float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	from, to := lo*float64(h.n), hi*float64(h.n)
	var cum, sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		a, b := math.Max(cum, from), math.Min(cum+float64(c), to)
		if b > a {
			// Ranks a..b of this bucket, as values between its bounds.
			l, u := bucketBounds(i)
			va := l + (u-l)*(a-cum)/float64(c)
			vb := l + (u-l)*(b-cum)/float64(c)
			sum += (b - a) * (va + vb) / 2
		}
		cum += float64(c)
		if cum >= to {
			break
		}
	}
	return sum / (to - from)
}

// median of a sample; NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4), the default
// "exclusive" method, because that is what judges this benchmark's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}
