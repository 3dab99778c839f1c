package main

import "testing"

// A cold run serves each corpus program at most once, whatever the seed.
func TestColdOrderNeverRepeats(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		o := newColdOrder(seed)
		seen := make(map[int]bool)
		for k := 0; k < coldCorpus+50; k++ {
			i := o.index(k)
			if seen[i] {
				t.Fatalf("seed %d: position %d repeats program %d", seed, k, i)
			}
			seen[i] = true
			if k < coldCorpus && (i < 0 || i >= coldCorpus) {
				t.Fatalf("seed %d: position %d maps outside the corpus to %d", seed, k, i)
			}
		}
	}
	if newColdOrder(1) == newColdOrder(2) {
		t.Fatal("two seeds give the same order")
	}
}
