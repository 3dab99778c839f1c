package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one replayed request share rid; parent indexes the enclosing
// span in the tracer (-1 for a root).
type span struct {
	Name   string `json:"name"`
	RID    int64  `json:"rid"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the identical code path.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent and returns its index (-1 when tracing is
// off).
func (t *tracer) begin(name string, rid int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, RID: rid, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// add records an already-timed interval, such as a GC pause or generator
// lateness observed after the fact.
func (t *tracer) add(name string, rid int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, RID: rid, Parent: parent,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union of the children's intervals, clipped
// to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rootOf returns the index of the root of span i's tree.
func rootOf(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

// selfOverRoot counts the span trees whose summed self time exceeds their
// root's duration; a correct trace has none.
func selfOverRoot(spans []span) int {
	self := selfTimes(spans)
	sum := make(map[int]int64)
	for i := range spans {
		sum[rootOf(spans, i)] += self[i]
	}
	bad := 0
	for root, s := range sum {
		if s > spans[root].End-spans[root].Start {
			bad++
		}
	}
	return bad
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Self  int64 // summed self time, ns
	Total int64 // summed duration, ns
}

// meanSelfUS is the mean self time per call in microseconds.
func (l layerStat) meanSelfUS() float64 {
	return ratio(float64(l.Self)/1e3, float64(l.Count))
}

// aggregate sums self time and duration per span name.
func aggregate(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := make(map[string]layerStat)
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.Self += self[i]
		l.Total += s.End - s.Start
		out[s.Name] = l
	}
	return out
}

// writeSpans writes the spans as JSON lines, after a first line carrying
// the run's provenance.
func writeSpans(path string, meta any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": meta}); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
