package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max-min)/median: how far the slices of one window
// disagree. A workload whose spread exceeds a metric's bound is flagged
// noisy — a regression smaller than that could not have been seen.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice and the number of samples strictly beyond that rank.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailMean is the mean of the slowest share (0 < share <= 1) of an
// ascending slice: a tail figure that integrates over the slow requests
// instead of reading one rank, so a cliff in the CDF cannot make it jump.
func tailMean(sorted []int64, share float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(share * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var sum float64
	for _, v := range sorted[n-k:] {
		sum += float64(v)
	}
	return sum / float64(k)
}

// minSamples is the fewest samples a tail figure may rest on before the
// run is flagged: the choosing-metrics rule asks for ten beyond a
// percentile; a mean over the tail gets a hundred.
const minSamples = 100

// sliceOf maps a completion time onto the measured window's slices:
// bounds holds len(slices)+1 ascending boundaries; -1 means the sample
// fell in warm-up or after the last boundary.
func sliceOf(at int64, bounds []int64) int {
	if len(bounds) < 2 || at < bounds[0] || at >= bounds[len(bounds)-1] {
		return -1
	}
	// bounds is tiny (6 entries); a linear scan beats sort.Search here.
	for i := 1; i < len(bounds); i++ {
		if at < bounds[i] {
			return i - 1
		}
	}
	return -1
}

// relWorse is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means b regressed.
func relWorse(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
