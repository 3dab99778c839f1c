package engine

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// ProcStats is one sample of process-wide health: resident set size, live
// heap, goroutine count, GC cycle count and GC pause quantiles. It is sampled
// at scrape time (not continuously), so the numbers a human curl sees and the
// numbers the leaperf collector stores are the same reading.
type ProcStats struct {
	// RSSBytes is the resident set size from /proc/self/statm, or 0 where
	// that file is unavailable (non-Linux).
	RSSBytes int64 `json:"rss_bytes"`
	// HeapLiveBytes is the runtime's live-heap estimate.
	HeapLiveBytes int64 `json:"heap_live_bytes"`
	// Goroutines is the current goroutine count.
	Goroutines int64 `json:"goroutines"`
	// GCCycles is the completed GC cycle count.
	GCCycles int64 `json:"gc_cycles"`
	// GCPauseP50NS, GCPauseP99NS and GCPauseMaxNS summarise the stop-the-world
	// pause distribution over the process lifetime, in nanoseconds.
	GCPauseP50NS int64 `json:"gc_pause_p50_ns"`
	GCPauseP99NS int64 `json:"gc_pause_p99_ns"`
	GCPauseMaxNS int64 `json:"gc_pause_max_ns"`
}

// pauseMetricNames are the runtime/metrics histogram names tried in order for
// GC stop-the-world pauses; the first one present wins. Newer runtimes expose
// /sched/pauses/total/gc, older ones /gc/pauses.
var pauseMetricNames = []string{
	"/sched/pauses/total/gc:seconds",
	"/gc/pauses:seconds",
}

// SampleProc reads the current process stats. It is cheap (a handful of
// runtime/metrics reads plus one small /proc file) and safe for concurrent
// use; callers sample it per scrape rather than on a background ticker.
func SampleProc() ProcStats {
	var s ProcStats
	s.Goroutines = int64(runtime.NumGoroutine())
	s.RSSBytes = readRSS()

	names := []string{"/memory/classes/heap/objects:bytes", "/gc/cycles/total:gc-cycles"}
	samples := make([]metrics.Sample, 0, len(names)+len(pauseMetricNames))
	for _, n := range names {
		samples = append(samples, metrics.Sample{Name: n})
	}
	for _, n := range pauseMetricNames {
		samples = append(samples, metrics.Sample{Name: n})
	}
	metrics.Read(samples)
	for _, sm := range samples {
		switch sm.Name {
		case "/memory/classes/heap/objects:bytes":
			if sm.Value.Kind() == metrics.KindUint64 {
				s.HeapLiveBytes = int64(sm.Value.Uint64())
			}
		case "/gc/cycles/total:gc-cycles":
			if sm.Value.Kind() == metrics.KindUint64 {
				s.GCCycles = int64(sm.Value.Uint64())
			}
		default:
			if sm.Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			if h := sm.Value.Float64Histogram(); h != nil && s.GCPauseMaxNS == 0 {
				s.GCPauseP50NS, s.GCPauseP99NS, s.GCPauseMaxNS = pauseQuantiles(h)
			}
		}
	}
	return s
}

// pauseQuantiles extracts p50/p99/max (in nanoseconds) from a runtime pause
// histogram. The max is estimated as the upper edge of the highest non-empty
// bucket (clamped to the last finite edge for the +Inf bucket).
func pauseQuantiles(h *metrics.Float64Histogram) (p50, p99, max int64) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0, 0
	}
	// Bucket i spans [Buckets[i], Buckets[i+1]).
	edge := func(i int) float64 {
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) { // the open +Inf bucket: clamp to its lower edge
			hi = h.Buckets[i]
		}
		return hi
	}
	quantile := func(q float64) int64 {
		rank := uint64(q * float64(total-1))
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if cum > rank {
				return int64(edge(i) * 1e9)
			}
		}
		return int64(edge(len(h.Counts)-1) * 1e9)
	}
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			max = int64(edge(i) * 1e9)
			break
		}
	}
	return quantile(0.50), quantile(0.99), max
}

// readRSS returns the resident set size in bytes from /proc/self/statm, or 0
// if the file is unavailable or malformed (e.g. non-Linux hosts).
func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// Metrics returns the stats as a flat metric map using the exposition names
// (proc_rss_bytes, proc_gc_pause_p99_ns, ...), shared by the text and JSON
// renderings so the two formats can never drift apart.
func (s ProcStats) Metrics() map[string]int64 {
	return map[string]int64{
		"proc_rss_bytes":       s.RSSBytes,
		"proc_heap_live_bytes": s.HeapLiveBytes,
		"proc_goroutines":      s.Goroutines,
		"proc_gc_cycles_total": s.GCCycles,
		"proc_gc_pause_p50_ns": s.GCPauseP50NS,
		"proc_gc_pause_p99_ns": s.GCPauseP99NS,
		"proc_gc_pause_max_ns": s.GCPauseMaxNS,
	}
}

// WriteProcMetrics samples the process stats and appends them to a /metrics
// text exposition as sorted "name value" lines. The gauges describe the whole
// process, not one engine, so they are sampled once per page at scrape time
// and never kept in an engine's registry.
func WriteProcMetrics(w io.Writer) error {
	m := SampleProc().Metrics()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, m[n]); err != nil {
			return err
		}
	}
	return nil
}
