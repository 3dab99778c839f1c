package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	// Ten samples: the nearest-rank p-th percentile is the ceil(p/10)-th
	// smallest.
	s := sortedCopy([]float64{15, 20, 35, 40, 50, 5, 10, 25, 30, 45})
	for _, c := range []struct{ p, want float64 }{
		{1, 5}, {10, 5}, {11, 10}, {50, 25}, {51, 30}, {90, 45}, {99, 50}, {100, 50},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// With 1000 samples 1..1000, p99 is 990: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(big, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

// latencyMS pools fewer than three windows' worth of samples and otherwise
// takes the median over windows, so one stalled window does not move it.
func TestLatencyWindows(t *testing.T) {
	samples := func(n int, slow func(i int) bool) []sample {
		out := make([]sample, n)
		for i := range out {
			out[i].latency = time.Duration(i%100+1) * time.Millisecond
			if slow(i) {
				out[i].latency += time.Second
			}
		}
		return out
	}
	// 2000 samples, 1..100 ms repeating: pooled, p50 is 50 ms, p99 99 ms.
	p50, p99, n := latencyMS(samples(2000, func(int) bool { return false }))
	if n != 2000 || p50 != 50 || p99 != 99 {
		t.Fatalf("pooled: p50 %v p99 %v n %d, want 50 99 2000", p50, p99, n)
	}
	// 5000 samples with the whole third window a second slower: the
	// window medians ignore it.
	p50, p99, _ = latencyMS(samples(5000, func(i int) bool { return i >= 2000 && i < 3000 }))
	if p50 != 50 || p99 != 99 {
		t.Fatalf("windowed: p50 %v p99 %v, want 50 99", p50, p99)
	}
}
