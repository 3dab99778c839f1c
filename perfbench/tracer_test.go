package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: union counts once
		{Name: "c", Parent: 1, Start: 15, End: 20},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // runs past the root: clipped
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// A real replay: every request's self times sum to no more than its root,
// and each replayed response matches what the serving stack answered.
func TestReplaySelfTimesWithinRoot(t *testing.T) {
	progs, err := warmCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	progs = progs[:12]
	cfg := &config{workers: 2, seconds: time.Second}
	run, err := newServeRun(cfg, func(k int) *program { return progs[k] })
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	var fill []int
	for k := range progs {
		fill = append(fill, k)
	}
	run.fill(fill)
	var ops []sample
	for i := 0; i < 40; i++ {
		k := (i * 7) % len(progs)
		ops = append(ops, sample{outcome: run.senders[i%2].send(k, progs[k]), seq: int64(i)})
	}
	rs, err := replayServe(run, fill, ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.replayed != len(ops) || rs.mismatches != 0 {
		t.Fatalf("replayed %d of %d requests, %d mismatches", rs.replayed, len(ops), rs.mismatches)
	}
	spans := rs.tr.spans
	self := selfTimes(spans)
	roots := 0
	for i := range spans {
		if spans[i].Parent >= 0 {
			continue
		}
		roots++
		var sum int64
		for j := range spans {
			if rootOf(spans, j) == i {
				sum += self[j]
			}
		}
		if d := spans[i].End - spans[i].Start; sum > d {
			t.Errorf("%s %d: self times sum to %d ns, root lasts %d ns", spans[i].Name, spans[i].RID, sum, d)
		}
	}
	if roots < len(ops) || selfOverRoot(spans) != 0 {
		t.Fatalf("%d roots for %d requests, %d trees over their root", roots, len(ops), selfOverRoot(spans))
	}
}
