package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile. A p99 over 200 samples is the second-largest value — one
// outlier decides it — so a percentile is only reported when at least this
// many samples back the tail it claims to describe.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule and whether it is reportable: at least minBeyond samples must rank
// above it. xs is not modified. +Inf samples (missed requests) sort last,
// so they push a percentile up exactly as a very late reply would.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// derivedSeed is the seed of a run's k-th distinct input draw: the run's
// own seed for k = 0, and for k > 0 a multiplicative mix of it, so runs
// with neighbouring seeds share no draws.
func derivedSeed(seed uint64, k int) uint64 {
	return seed ^ uint64(k)*0x9E3779B97F4A7C15
}

// windowedPercentile splits xs, in order, into consecutive windows of
// window samples (a remainder joins the last window), takes each window's
// q-quantile and returns their median and the window count. Every window
// must back its quantile with minBeyond samples. A burst of host noise
// that lands in one window of a run then decides only that window's
// quantile, not the reported one.
func windowedPercentile(xs []float64, q float64, window int) (float64, int, bool) {
	n := 0
	if window > 0 {
		n = len(xs) / window
	}
	if n == 0 {
		return 0, 0, false
	}
	qs := make([]float64, n)
	for w := range qs {
		end := (w + 1) * window
		if w == n-1 {
			end = len(xs)
		}
		v, ok := percentile(xs[w*window:end], q)
		if !ok {
			return 0, 0, false
		}
		qs[w] = v
	}
	return median(qs), n, true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. A median needs no tail support.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exactTickQuantile is the nearest-rank q-quantile of simulated-tick
// latencies. Ticks are integers produced deterministically by the
// simulator, so the result repeats exactly run to run; it is computed from
// every request rather than read off a bucketed histogram, whose answer is
// a bucket bound.
func exactTickQuantile(ticks []uint64, q float64) (uint64, bool) {
	n := len(ticks)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]uint64(nil), ticks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], true
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest value of xs (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
