package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		p         float64
		wantValue float64
		wantP     float64
	}{
		// 2000 samples: p99 is rank 1980, with 20 beyond it.
		{2000, 0.99, 1980, 0.99},
		// 1000 samples: p99 is rank 990, exactly 10 beyond.
		{1000, 0.99, 990, 0.99},
		// 500 samples: p99 would leave 5 beyond; lowered to rank 490.
		{500, 0.99, 490, 0.98},
		// 100 samples: p90 keeps 10 beyond.
		{100, 0.90, 90, 0.90},
		// 60 samples: p99 lowered to rank 50.
		{60, 0.99, 50, 50.0 / 60},
		// 15 samples: rank 5 would fall below the median; use the median rank.
		{15, 0.99, 8, 8.0 / 15},
		{1, 0.99, 1, 1},
	}
	for _, c := range cases {
		v, p := tail(seq(c.n), c.p)
		if v != c.wantValue || p != c.wantP {
			t.Errorf("tail(n=%d, p=%v) = %v at p%.4f, want %v at p%.4f", c.n, c.p, v, p, c.wantValue, c.wantP)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
