package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a tail
// percentile before it is reported: fewer, and the "percentile" is one
// or two outliers and moves from run to run by itself.
const minTail = 10

// tailSupported reports whether a sample of n values has at least
// minTail samples beyond percentile p (0 < p < 100).
func tailSupported(n int, p float64) bool {
	return int(math.Floor(float64(n)*(100-p)/100+1e-9)) >= minTail
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Timings are medians over consecutive blocks of at least blockMin
// requests (at most maxBlocks blocks), in completion order. On a shared
// host a burst of contention slows a minority of blocks, which a median
// over blocks ignores and a percentile over the whole window does not.
// blockMin keeps ten samples beyond each block's p90.
const (
	blockMin  = 100
	maxBlocks = 20
)

// blockTimings splits samples (any order) into blocks by completion
// time and returns the median over blocks of each block's p50 and p90
// latency in ms; ok(s) reports whether sample s was answered (a failed
// one counts as infinitely slow).
func blockTimings(samples []sample, ok func(sample) bool) (p50, p90 float64) {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	nb := min(max(len(s)/blockMin, 1), maxBlocks)
	var p50s, p90s []float64
	for b := 0; b < nb; b++ {
		blk := s[b*len(s)/nb : (b+1)*len(s)/nb]
		lat := make([]float64, len(blk))
		for i, x := range blk {
			lat[i] = math.Inf(1)
			if ok(x) {
				lat[i] = float64(x.latency) / float64(time.Millisecond)
			}
		}
		p50s = append(p50s, percentile(lat, 50))
		p90s = append(p90s, percentile(lat, 90))
	}
	return median(p50s), median(p90s)
}
