package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantileResolvesSubMillisecond: a population of ~300 µs operations
// must report p50 within 1 % of 300 µs. A histogram whose first bucket
// ends at 0.5 ms can only interpolate inside that bucket (it reports about
// 266 µs for any population mostly under 0.5 ms); raw samples do not.
func TestQuantileResolvesSubMillisecond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = 0.300 + (rng.Float64()-0.5)*0.004 // ms, 298-302 µs
	}
	p50 := quantileOf(samples, 0.50)
	if math.Abs(p50.Value-0.300)/0.300 > 0.01 {
		t.Fatalf("p50 = %.4f ms, want 0.300 ms within 1%%", p50.Value)
	}
	if p50.N != 10000 || p50.Beyond != 5000 {
		t.Fatalf("p50 evidence N=%d beyond=%d", p50.N, p50.Beyond)
	}
}

// TestQuantileNearestRank pins the rank rule and its sample counts.
func TestQuantileNearestRank(t *testing.T) {
	xs := func() []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = float64(100 - i) // 100..1, unsorted
		}
		return s
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.50, 50, 50}, {0.99, 99, 1}, {0.999, 100, 0}, {0.01, 1, 99},
	} {
		got := quantileOf(xs(), tc.q)
		if got.Value != tc.value || got.Beyond != tc.beyond || got.N != 100 {
			t.Errorf("q=%v: got %+v, want value %v beyond %d", tc.q, got, tc.value, tc.beyond)
		}
	}
	if !math.IsNaN(quantileOf(nil, 0.5).Value) {
		t.Error("empty set must have no quantile")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
