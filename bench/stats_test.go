package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{100, 1, 2, 3, 4}, 3}, // one burst slice does not move it
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread(nil) = %v", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v", got)
	}
}

func TestPercentileAndTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q          float64
		v          int64
		wantBeyond int
	}{
		{0.50, 500, 500},
		{0.90, 900, 100},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1.0, 1000, 0},
	} {
		v, beyond := percentile(s, tc.q)
		if v != tc.v || beyond != tc.wantBeyond {
			t.Errorf("percentile(1..1000, %v) = %d with %d beyond, want %d with %d", tc.q, v, beyond, tc.v, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %d, %d", v, beyond)
	}
	if v, _ := percentile([]int64{7}, 0.01); v != 7 {
		t.Errorf("percentile of one sample = %d", v)
	}
}

func TestTailMean(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		share float64
		want  float64
	}{
		{0.10, 95.5}, // 91..100
		{0.01, 100},
		{1.0, 50.5},
		{0.001, 100}, // never fewer than one sample
	} {
		if got := tailMean(s, tc.share); got != tc.want {
			t.Errorf("tailMean(1..100, %v) = %v, want %v", tc.share, got, tc.want)
		}
	}
	if got := tailMean(nil, 0.1); got != 0 {
		t.Errorf("tailMean(nil) = %v", got)
	}
	// One sample far out moves the tail mean by its share, not by a cliff.
	s[99] = 1100
	if got := tailMean(s, 0.10); got != 195.5 {
		t.Errorf("tailMean with an outlier = %v, want 195.5", got)
	}
}

func TestSliceOf(t *testing.T) {
	bounds := []int64{100, 200, 300, 400}
	for _, tc := range []struct {
		at   int64
		want int
	}{
		{99, -1}, {100, 0}, {199, 0}, {200, 1}, {399, 2}, {400, -1}, {1000, -1},
	} {
		if got := sliceOf(tc.at, bounds); got != tc.want {
			t.Errorf("sliceOf(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if got := sliceOf(5, nil); got != -1 {
		t.Errorf("sliceOf with no bounds = %d", got)
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("rate 100 -> 90 = %v, want 0.10 worse", got)
	}
	if got := relWorse(100, 110, true); got >= 0 {
		t.Errorf("rate 100 -> 110 = %v, want an improvement (negative)", got)
	}
	if got := relWorse(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100 -> 110 = %v, want 0.10 worse", got)
	}
	if got := relWorse(0, 5, false); got != 0 {
		t.Errorf("zero base = %v", got)
	}
}
