// Package collector samples a running leaserved without instrumenting it: on
// a configurable interval it scrapes the daemon's /metrics text endpoint —
// which, since the perfobs wiring, carries process gauges (RSS, heap, GC
// pause quantiles, goroutines) alongside the serving counters — and keeps
// every scrape as a typed Sample. The collected series reduce to a Summary
// (first/last/min/max per metric plus derived throughput, warm-hit ratio,
// RSS peak and max GC pause) and from there to a perfobs.Record for the
// trend store.
//
// The collector deliberately imports nothing from internal/serve: it speaks
// to the daemon exactly like a human curl does, over the text exposition, so
// what it stores is by construction what an operator would have seen. Its
// own perturbation of the target is bounded and measured — every scrape's
// wall time is accounted in the summary, and the CI smoke asserts the total
// stays under 1% of the observation window.
package collector

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/perfobs"
)

// Config sizes a collector run.
type Config struct {
	// URL is the daemon base URL (the collector appends /metrics).
	URL string
	// Interval is the scrape period (default 250ms, minimum 10ms).
	Interval time.Duration
	// Client is the HTTP client to scrape with (default: 5s-timeout client).
	Client *http.Client
	// MaxSamples caps the sample buffer as a runaway guard (default 100000).
	MaxSamples int
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Interval < 10*time.Millisecond {
		c.Interval = 10 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 100000
	}
	return c
}

// Sample is one scrape: the parsed metric map plus the scrape's own cost.
type Sample struct {
	// OffsetNS is the scrape start relative to the run start.
	OffsetNS int64 `json:"offset_ns"`
	// ScrapeNS is how long the scrape itself took (the collector's
	// perturbation budget is the sum of these).
	ScrapeNS int64 `json:"scrape_ns"`
	// Metrics maps metric name to value. Labelled series on the page
	// (`requests_total{zone="a"}`) are summed into their base name.
	Metrics map[string]float64 `json:"metrics"`
}

// Series summarises one metric across the run.
type Series struct {
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// Summary is a finished run reduced to the numbers the trend store keeps.
type Summary struct {
	// Samples and Errors count successful and failed scrapes.
	Samples int `json:"samples"`
	Errors  int `json:"errors"`
	// ElapsedNS is the observation window; ScrapeTotalNS and ScrapeMaxNS
	// bound the collector's own footprint inside it.
	ElapsedNS     int64 `json:"elapsed_ns"`
	ScrapeTotalNS int64 `json:"scrape_total_ns"`
	ScrapeMaxNS   int64 `json:"scrape_max_ns"`
	// Series holds the per-metric first/last/min/max envelope.
	Series map[string]Series `json:"series"`
	// Derived headline numbers (zero when the underlying series are absent):
	// throughput from the requests_total delta over the window, warm-hit
	// ratio from the cache counter deltas, and the process-gauge peaks.
	ThroughputRPS    float64 `json:"throughput_rps"`
	WarmHitRatio     float64 `json:"warm_hit_ratio"`
	ErrorsDelta      float64 `json:"errors_delta"`
	RSSPeakBytes     float64 `json:"rss_peak_bytes"`
	HeapPeakBytes    float64 `json:"heap_peak_bytes"`
	GCPauseMaxNS     float64 `json:"gc_pause_max_ns"`
	GCPauseP99NS     float64 `json:"gc_pause_p99_ns"`
	GoroutinesMax    float64 `json:"goroutines_max"`
	OverheadFraction float64 `json:"overhead_fraction"`
}

// Result is a completed collector run.
type Result struct {
	// Samples holds every successful scrape in order.
	Samples []Sample `json:"samples"`
	// Errors counts failed scrapes (connection refused during daemon
	// startup/shutdown is normal at the run edges).
	Errors int `json:"errors"`
	// ElapsedNS is the wall time between Run start and finish.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Collector scrapes one target. Create with New; a Collector is single-use
// per Run call but Run may be called repeatedly.
type Collector struct {
	cfg Config
}

// New validates cfg and returns a collector.
func New(cfg Config) (*Collector, error) {
	if strings.TrimSpace(cfg.URL) == "" {
		return nil, fmt.Errorf("collector: need a target URL")
	}
	cfg.URL = strings.TrimRight(cfg.URL, "/")
	return &Collector{cfg: cfg.withDefaults()}, nil
}

// Run scrapes the target every Interval until the duration elapses or ctx is
// cancelled, whichever comes first, and returns the collected samples. The
// first scrape happens immediately, so even a run shorter than one interval
// yields a sample. Scrape failures are counted, never fatal — a daemon
// restarting mid-run shows up as a gap, not a dead collector.
func (c *Collector) Run(ctx context.Context, d time.Duration) (*Result, error) {
	if d <= 0 {
		return nil, fmt.Errorf("collector: need a positive duration, got %v", d)
	}
	res := &Result{}
	start := time.Now()
	deadline := start.Add(d)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		t0 := time.Now()
		metrics, err := c.scrape(ctx)
		if err != nil {
			res.Errors++
		} else if len(res.Samples) < c.cfg.MaxSamples {
			res.Samples = append(res.Samples, Sample{
				OffsetNS: t0.Sub(start).Nanoseconds(),
				ScrapeNS: time.Since(t0).Nanoseconds(),
				Metrics:  metrics,
			})
		}
		if time.Now().After(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			res.ElapsedNS = time.Since(start).Nanoseconds()
			return res, nil
		case <-ticker.C:
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	res.ElapsedNS = time.Since(start).Nanoseconds()
	return res, nil
}

// scrape fetches and parses one /metrics page.
func (c *Collector) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	return ParseMetrics(io.LimitReader(resp.Body, 8<<20))
}

// ParseMetrics parses a text metric exposition ("name value" lines, names
// optionally carrying a {label="…"} set) into a flat map. Labelled series
// are summed into their base name; blank lines and lines starting with '#'
// are skipped; a malformed line is an error, because silently dropping
// samples is how observability rots.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %d: no value in %q", lineNo, line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated label set in %q", lineNo, line)
			}
			name = name[:i]
		}
		if name == "" {
			return nil, fmt.Errorf("metrics line %d: empty metric name in %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value in %q: %v", lineNo, line, err)
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summarize reduces a run to its summary envelope and derived numbers.
func (r *Result) Summarize() Summary {
	s := Summary{
		Samples:   len(r.Samples),
		Errors:    r.Errors,
		ElapsedNS: r.ElapsedNS,
		Series:    make(map[string]Series),
	}
	for _, smp := range r.Samples {
		s.ScrapeTotalNS += smp.ScrapeNS
		if smp.ScrapeNS > s.ScrapeMaxNS {
			s.ScrapeMaxNS = smp.ScrapeNS
		}
		for name, v := range smp.Metrics {
			sr, seen := s.Series[name]
			if !seen {
				sr = Series{First: v, Min: v, Max: v}
			}
			if v < sr.Min {
				sr.Min = v
			}
			if v > sr.Max {
				sr.Max = v
			}
			sr.Last = v
			sr.Count++
			s.Series[name] = sr
		}
	}
	if s.ElapsedNS > 0 {
		s.OverheadFraction = float64(s.ScrapeTotalNS) / float64(s.ElapsedNS)
	}
	if req, ok := s.Series["requests_total"]; ok && s.ElapsedNS > 0 {
		s.ThroughputRPS = (req.Last - req.First) / (float64(s.ElapsedNS) / 1e9)
	}
	hits, hok := s.Series["cache_hits_total"]
	misses, mok := s.Series["cache_misses_total"]
	if hok && mok {
		dh, dm := hits.Last-hits.First, misses.Last-misses.First
		if dh+dm > 0 {
			s.WarmHitRatio = dh / (dh + dm)
		}
	}
	if errs, ok := s.Series["errors_total"]; ok {
		s.ErrorsDelta = errs.Last - errs.First
	}
	if rss, ok := s.Series["proc_rss_bytes"]; ok {
		s.RSSPeakBytes = rss.Max
	}
	if heap, ok := s.Series["proc_heap_live_bytes"]; ok {
		s.HeapPeakBytes = heap.Max
	}
	if gp, ok := s.Series["proc_gc_pause_max_ns"]; ok {
		s.GCPauseMaxNS = gp.Max
	}
	if gp, ok := s.Series["proc_gc_pause_p99_ns"]; ok {
		s.GCPauseP99NS = gp.Max
	}
	if g, ok := s.Series["proc_goroutines"]; ok {
		s.GoroutinesMax = g.Max
	}
	return s
}

// procSeries are the process-gauge series whose envelopes the record keeps as
// their own rows, so the stored trajectory carries the RSS and GC-pause
// time-series shape, not only the peaks.
var procSeries = []string{
	"proc_rss_bytes",
	"proc_heap_live_bytes",
	"proc_gc_pause_max_ns",
	"proc_gc_pause_p50_ns",
	"proc_gc_pause_p99_ns",
	"proc_goroutines",
	"proc_gc_cycles_total",
}

// Record reduces the run to a trajectory record of the given kind and label:
// a "summary" row with the derived headline numbers and scrape-overhead
// accounting, plus one envelope row per process series that appeared in the
// scrape.
func (r *Result) Record(kind, label string, meta perfobs.Meta) *perfobs.Record {
	s := r.Summarize()
	rec := perfobs.NewRecord(kind, label, meta)
	rec.AddRow("summary", map[string]float64{
		"samples":           float64(s.Samples),
		"scrape_errors":     float64(s.Errors),
		"elapsed_ns":        float64(s.ElapsedNS),
		"scrape_total_ns":   float64(s.ScrapeTotalNS),
		"scrape_max_ns":     float64(s.ScrapeMaxNS),
		"overhead_fraction": s.OverheadFraction,
		"throughput_rps":    s.ThroughputRPS,
		"warm_hit_ratio":    s.WarmHitRatio,
		"errors_delta":      s.ErrorsDelta,
		"rss_peak_bytes":    s.RSSPeakBytes,
		"heap_peak_bytes":   s.HeapPeakBytes,
		"gc_pause_max_ns":   s.GCPauseMaxNS,
		"gc_pause_p99_ns":   s.GCPauseP99NS,
		"goroutines_max":    s.GoroutinesMax,
	})
	names := make([]string, 0, len(procSeries))
	names = append(names, procSeries...)
	sort.Strings(names)
	for _, name := range names {
		sr, ok := s.Series[name]
		if !ok {
			continue
		}
		rec.AddRow(name, map[string]float64{
			"first": sr.First,
			"last":  sr.Last,
			"min":   sr.Min,
			"max":   sr.Max,
			"count": float64(sr.Count),
		})
	}
	return rec
}
