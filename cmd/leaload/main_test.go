package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve/engine"
	"repro/internal/serve/transport"
)

func TestParseMix(t *testing.T) {
	got, err := parseMix("random=2, hlsbench=1,figures=0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"random": 2, "hlsbench": 1, "figures": 0}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("mix[%s] = %d, want %d", k, got[k], v)
		}
	}
	for _, bad := range []string{"random", "random=x", "random=-1", "unknown=1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestBuildCorpusDeterministicAndWeighted(t *testing.T) {
	cfg := loadConfig{mix: "random=2,figures=1", shapes: 3, instrs: 8, seed: 42}
	a, err := buildCorpus(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	// 3 random shapes at weight 2 + 3 figure kernels at weight 1, no hlsbench.
	if len(a) != 3*2+3 {
		t.Fatalf("corpus size %d, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus entry %d not deterministic: %q vs %q", i, a[i].name, b[i].name)
		}
		if a[i].class == "hlsbench" {
			t.Fatalf("zero-weight class present: %+v", a[i])
		}
	}

	if _, err := buildCorpus(&loadConfig{mix: "hlsbench=0", shapes: 1, instrs: 8, seed: 1}); err == nil {
		t.Error("empty pick list accepted")
	}
}

// TestRunAgainstEngine drives the full leaload loop against an in-process
// serve engine and checks the strict and require-warm gates pass with a
// healthy report.
func TestRunAgainstEngine(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, QueueDepth: 32})
	srv := httptest.NewServer(transport.NewMux(eng))
	defer srv.Close()

	var buf bytes.Buffer
	args := []string{
		"-url", srv.URL, "-workers", "2", "-duration", "300ms",
		"-mix", "figures=1", "-registers", "4", "-seed", "7",
		"-strict", "-require-warm", "-json",
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("leaload run: %v\n%s", err, buf.String())
	}
	var report loadReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, buf.String())
	}
	if report.Requests == 0 || report.Errors != 0 {
		t.Errorf("requests %d errors %d, want >0 and 0", report.Requests, report.Errors)
	}
	if report.ByClass["figures"] != report.Requests {
		t.Errorf("by_class figures %d, want all %d requests", report.ByClass["figures"], report.Requests)
	}
	if report.Server == nil || report.Server.CacheHits == 0 || report.Server.SolvesIncremental == 0 {
		t.Errorf("server stats missing warm traffic: %+v", report.Server)
	}
	if report.Latency.Count != report.Requests {
		t.Errorf("latency count %d, want %d", report.Latency.Count, report.Requests)
	}
	if len(report.ByError) != 0 {
		t.Errorf("by_error %v, want empty on a clean run", report.ByError)
	}
	// The daemon's own /statsz count includes every driven request.
	if report.Server.Requests != report.Requests {
		t.Errorf("server snapshot counts %d requests, driver sent %d", report.Server.Requests, report.Requests)
	}
}

// TestRunStrictFailsOnDeadServer checks the strict gate turns transport
// failures into a nonzero exit and every failure is counted by its error
// code.
func TestRunStrictFailsOnDeadServer(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-url", "http://127.0.0.1:1", "-workers", "1", "-duration", "50ms",
		"-mix", "figures=1", "-timeout", "100ms", "-strict", "-json",
	}
	err := run(args, &buf)
	if err == nil || !strings.Contains(err.Error(), "strict") {
		t.Fatalf("dead server under -strict: err %v", err)
	}
	// The JSON report follows the statsz-unavailable note; every error must
	// be accounted in the by_error map.
	out := buf.String()
	start := strings.Index(out, "{")
	if start < 0 {
		t.Fatalf("no JSON report in output:\n%s", out)
	}
	var report loadReport
	if err := json.Unmarshal([]byte(out[start:]), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, out)
	}
	var byCode int64
	for _, n := range report.ByError {
		byCode += n
	}
	if report.Errors == 0 || byCode != report.Errors {
		t.Errorf("by_error %v sums to %d, errors %d (want nonzero and equal)", report.ByError, byCode, report.Errors)
	}
	if report.ByError["transport"] != report.Errors {
		t.Errorf("by_error %v, want every failure under transport", report.ByError)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workers", "0"}, &buf); err == nil {
		t.Error("zero workers accepted")
	}
	if err := run([]string{"-mix", "bogus=1"}, &buf); err == nil {
		t.Error("bogus mix accepted")
	}
	for _, args := range [][]string{
		{"-loop", "bogus"},
		{"-dist", "bogus"},
		{"-dist", "zipfian:theta=1.5"},
		{"-loop", "open", "-arrival", "bogus", "-duration", "10ms"},
		{"-loop", "open", "-rate", "0", "-duration", "10ms"},
		{"-sweep", "100,-5", "-duration", "10ms"},
		{"-sweep", ",", "-duration", "10ms"},
		{"-url", " ", "-duration", "10ms"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// leaload drives one daemon: an endpoint list is rejected, not routed.
	err := run([]string{"-url", "http://127.0.0.1:1,http://127.0.0.1:2", "-duration", "10ms"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "one endpoint") {
		t.Errorf("comma-separated -url: err %v, want a one-endpoint error", err)
	}
}

func TestParseSweep(t *testing.T) {
	got, err := parseSweep(" 100, 250,1000 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 250, 1000}
	if len(got) != len(want) {
		t.Fatalf("parseSweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSweep = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", ",", "x", "0", "-3", "100,nan"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("sweep %q accepted", bad)
		}
	}
}

// TestRunOpenLoopAgainstEngine drives the open loop end to end: scheduled
// arrivals, coordinated-omission-safe accounting, warmup/steady split and
// the BENCH_load.json record, with the strict and warm gates green.
func TestRunOpenLoopAgainstEngine(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4, QueueDepth: 256})
	srv := httptest.NewServer(transport.NewMux(eng))
	defer srv.Close()

	benchOut := filepath.Join(t.TempDir(), "BENCH_load.json")
	var buf bytes.Buffer
	args := []string{
		"-url", srv.URL, "-workers", "4", "-loop", "open",
		"-rate", "400", "-arrival", "exp", "-duration", "400ms", "-warmup", "100ms",
		"-dist", "zipfian:theta=0.99", "-mix", "figures=1", "-registers", "4", "-seed", "7",
		"-strict", "-require-warm", "-json", "-bench-out", benchOut,
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("leaload open-loop run: %v\n%s", err, buf.String())
	}
	var report loadReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, buf.String())
	}
	if report.Loop != "open" || report.Arrival != "exp" || report.Dist != "zipfian:theta=0.99" {
		t.Errorf("loop/arrival/dist = %q/%q/%q", report.Loop, report.Arrival, report.Dist)
	}
	open := report.Open
	if open == nil {
		t.Fatal("open-loop report missing the Open breakdown")
	}
	if open.Scheduled == 0 || open.Scheduled != open.Sent+open.Omitted {
		t.Errorf("scheduled %d != sent %d + omitted %d", open.Scheduled, open.Sent, open.Omitted)
	}
	if open.Omitted != 0 {
		t.Errorf("omitted %d without a cutoff", open.Omitted)
	}
	if open.Sent != report.Requests {
		t.Errorf("sent %d != tallied requests %d", open.Sent, report.Requests)
	}
	if got := open.Warmup.Ops + open.Steady.Ops; got != open.Sent {
		t.Errorf("phase ops %d+%d != sent %d", open.Warmup.Ops, open.Steady.Ops, open.Sent)
	}
	if open.Warmup.Ops == 0 || open.Steady.Ops == 0 {
		t.Errorf("empty phase: warmup %d steady %d ops", open.Warmup.Ops, open.Steady.Ops)
	}
	// The headline latency must be the steady-state intended-start histogram.
	if report.Latency != open.Steady.Latency {
		t.Errorf("headline latency %+v != steady intended-start %+v", report.Latency, open.Steady.Latency)
	}
	if open.Steady.Service.Count != open.Steady.Ops || open.Steady.Latency.Count != open.Steady.Ops {
		t.Errorf("steady histogram counts %d/%d != ops %d",
			open.Steady.Latency.Count, open.Steady.Service.Count, open.Steady.Ops)
	}
	if report.OfferedRPS <= 0 || report.ThroughputRPS <= 0 {
		t.Errorf("offered %.1f achieved %.1f, want both positive", report.OfferedRPS, report.ThroughputRPS)
	}

	data, err := os.ReadFile(benchOut)
	if err != nil {
		t.Fatalf("bench record: %v", err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("bench record decode: %v\n%s", err, data)
	}
	if rec.Schema != "leaload/v1" || rec.Report == nil || rec.Report.Requests != report.Requests {
		t.Errorf("bench record %q with %+v, want leaload/v1 mirroring the report", rec.Schema, rec.Report)
	}
}

// TestRunSweepFindsKnee steps two offered rates against a healthy in-process
// engine; with a generous p99 budget both stages pass, so the knee is the
// higher rate and the trajectory record carries both stages.
func TestRunSweepFindsKnee(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4, QueueDepth: 256})
	srv := httptest.NewServer(transport.NewMux(eng))
	defer srv.Close()

	var buf bytes.Buffer
	args := []string{
		"-url", srv.URL, "-workers", "4", "-sweep", "150,300",
		"-duration", "250ms", "-warmup", "50ms", "-knee-p99", "5s",
		"-mix", "figures=1", "-registers", "4", "-seed", "11", "-json",
	}
	if err := run(args, &buf); err != nil {
		t.Fatalf("leaload sweep run: %v\n%s", err, buf.String())
	}
	var report loadReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report decode: %v\n%s", err, buf.String())
	}
	if report.Loop != "open" {
		t.Errorf("sweep report loop %q, want open", report.Loop)
	}
	if len(report.Sweep) != 2 {
		t.Fatalf("sweep stages %d, want 2", len(report.Sweep))
	}
	var total int64
	for i, s := range report.Sweep {
		total += s.Requests
		if s.Requests == 0 || s.Errors != 0 || s.Omitted != 0 {
			t.Errorf("stage %d: requests %d errors %d omitted %d", i, s.Requests, s.Errors, s.Omitted)
		}
		if s.P99NS <= 0 || s.OfferedRPS <= 0 {
			t.Errorf("stage %d: p99 %d offered %.1f, want positive", i, s.P99NS, s.OfferedRPS)
		}
	}
	if total != report.Requests {
		t.Errorf("stage requests sum %d != total %d", total, report.Requests)
	}
	if report.Sweep[1].OfferedRPS <= report.Sweep[0].OfferedRPS {
		t.Errorf("offered rates not increasing: %.1f then %.1f",
			report.Sweep[0].OfferedRPS, report.Sweep[1].OfferedRPS)
	}
	if report.KneeRPS != report.Sweep[1].OfferedRPS {
		t.Errorf("knee %.1f, want the highest passing stage %.1f", report.KneeRPS, report.Sweep[1].OfferedRPS)
	}
}

// TestZipfianSkewImprovesWarmHitRatio is the cache-affinity acceptance
// check: with a template cache far smaller than the corpus, zipfian
// popularity concentrates traffic on few shapes and must beat a uniform
// mix's warm-cache hit ratio by a clear margin.
func TestZipfianSkewImprovesWarmHitRatio(t *testing.T) {
	hitRatio := func(dist string) float64 {
		eng := engine.New(engine.Config{Workers: 2, QueueDepth: 64, CacheEntries: 4})
		srv := httptest.NewServer(transport.NewMux(eng))
		defer srv.Close()
		var buf bytes.Buffer
		args := []string{
			"-url", srv.URL, "-workers", "2", "-duration", "400ms",
			"-mix", "random=1", "-shapes", "24", "-instrs", "8",
			"-registers", "4", "-seed", "3", "-dist", dist, "-json",
		}
		if err := run(args, &buf); err != nil {
			t.Fatalf("leaload %s run: %v\n%s", dist, err, buf.String())
		}
		var report loadReport
		if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
			t.Fatalf("report decode: %v\n%s", err, buf.String())
		}
		if report.Server == nil {
			t.Fatalf("%s run: server stats missing", dist)
		}
		total := report.Server.CacheHits + report.Server.CacheMisses
		if total == 0 {
			t.Fatalf("%s run: no cache traffic", dist)
		}
		return float64(report.Server.CacheHits) / float64(total)
	}
	uniform := hitRatio("uniform")
	zipf := hitRatio("zipfian:theta=0.99")
	if zipf < uniform+0.05 {
		t.Errorf("zipfian hit ratio %.3f not clearly above uniform %.3f", zipf, uniform)
	}
}
