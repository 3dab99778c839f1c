// Command leaload is a load driver for the leaserved allocation service, in
// the YCSB/yabf mold, with two loop disciplines:
//
//   - closed loop (-loop closed, the default): N workers each keep exactly
//     one request in flight — the classic benchmark loop, whose latency
//     numbers suffer coordinated omission under server stalls;
//   - open loop (-loop open): requests arrive on a seeded schedule at a
//     target offered rate (-rate, -arrival exp|const) regardless of how the
//     server is doing, and every latency sample is measured from the
//     operation's *intended* start time, so a stalled server shows up as the
//     full backlog of late samples instead of one slow one. Warmup traffic
//     (-warmup) is measured separately from steady state, and a late cutoff
//     (-cutoff) turns a hopelessly backlogged run into counted — never
//     silent — omitted samples.
//
// Program popularity is shaped by -dist: uniform, zipfian[:theta=…] or
// hotspot[:frac=…,weight=…] over the rendered corpus, so the server's warm
// template cache sees realistic skew instead of a uniform mix. -sweep
// "r1,r2,…" steps the offered rate through a trajectory, reports each
// stage's steady-state p99 and locates the knee — the highest offered rate
// that still meets -knee-p99 with zero omissions; -bench-out writes the
// machine-readable trajectory (the BENCH_load.json record CI tracks).
//
// -url names the one daemon under load; its /statsz snapshot is reported
// next to the client-side numbers, and failed requests are counted by error
// code.
//
// Repeating a small corpus of program shapes is the point: it drives the
// server's warm template cache, so a healthy run shows a high cache hit
// ratio and a nonzero incremental solve count. -json emits the machine-
// readable report for bench tracking; -strict fails the process on any
// failed request; -require-warm additionally fails it when the server saw
// no warm-cache traffic.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/perfobs"
	"repro/internal/perfobs/store"
	"repro/internal/serve/engine"
	"repro/internal/workload"
	"repro/internal/workload/generator"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leaload:", err)
		os.Exit(1)
	}
}

// loadConfig is the parsed flag set.
type loadConfig struct {
	url         string
	workers     int
	duration    time.Duration
	mix         string
	shapes      int
	instrs      int
	registers   int
	memdiv      int
	seed        int64
	timeout     time.Duration
	jsonOut     bool
	strict      bool
	requireWarm bool

	loop       string
	rate       float64
	arrival    string
	warmup     time.Duration
	dist       string
	cutoff     time.Duration
	sweep      string
	kneeP99    time.Duration
	benchOut   string
	trajectory string
}

// run drives the load and writes the report.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("leaload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.StringVar(&cfg.url, "url", "http://127.0.0.1:8311", "leaserved base URL")
	fs.IntVar(&cfg.workers, "workers", 4, "concurrent workers (closed loop) or senders (open loop)")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "run length (open loop: steady-state phase length)")
	fs.StringVar(&cfg.mix, "mix", "random=1,hlsbench=1,figures=1", "workload class weights, class=weight comma-separated")
	fs.IntVar(&cfg.shapes, "shapes", 4, "distinct random program shapes")
	fs.IntVar(&cfg.instrs, "instrs", 12, "instructions per random program")
	fs.IntVar(&cfg.registers, "registers", 6, "register count requested per allocation")
	fs.IntVar(&cfg.memdiv, "memdiv", 1, "memory frequency divisor requested per allocation")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request client timeout")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit a machine-readable JSON report")
	fs.BoolVar(&cfg.strict, "strict", false, "exit nonzero if any request failed or was omitted")
	fs.BoolVar(&cfg.requireWarm, "require-warm", false, "exit nonzero unless the server reports warm-cache hits and incremental solves")
	fs.StringVar(&cfg.loop, "loop", "closed", "loop discipline: closed (one request in flight per worker) or open (scheduled arrivals at -rate)")
	fs.Float64Var(&cfg.rate, "rate", 1000, "open loop: target offered rate, requests/second")
	fs.StringVar(&cfg.arrival, "arrival", "exp", "open loop: interarrival process, exp (Poisson) or const")
	fs.DurationVar(&cfg.warmup, "warmup", 0, "open loop: warmup phase excluded from steady-state stats")
	fs.StringVar(&cfg.dist, "dist", "uniform", "program popularity: uniform, zipfian[:theta=0.99] or hotspot[:frac=0.2,weight=0.8]")
	fs.DurationVar(&cfg.cutoff, "cutoff", 0, "open loop: abandon (and count omitted) ops claimed this long past the schedule end; 0 = never")
	fs.StringVar(&cfg.sweep, "sweep", "", "open loop: comma-separated offered rates to step through, reporting the p99 knee")
	fs.DurationVar(&cfg.kneeP99, "knee-p99", 50*time.Millisecond, "sweep: steady-state p99 budget a stage must meet to count as under the knee")
	fs.StringVar(&cfg.benchOut, "bench-out", "", "write the machine-readable run/trajectory record (BENCH_load.json) to this path")
	fs.StringVar(&cfg.trajectory, "trajectory", "", "append the run to the perf-trajectory store under this directory (e.g. trajectory/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.workers < 1 {
		return fmt.Errorf("need at least one worker, got %d", cfg.workers)
	}
	if cfg.loop != "closed" && cfg.loop != "open" {
		return fmt.Errorf("bad -loop %q (closed, open)", cfg.loop)
	}
	if cfg.sweep != "" {
		cfg.loop = "open" // a sweep is a sequence of open-loop stages
	}
	cfg.url = strings.TrimRight(strings.TrimSpace(cfg.url), "/")
	if cfg.url == "" {
		return fmt.Errorf("need a -url endpoint")
	}
	if strings.Contains(cfg.url, ",") {
		return fmt.Errorf("-url %q: takes one endpoint, not a list", cfg.url)
	}

	picks, err := buildCorpus(&cfg)
	if err != nil {
		return err
	}
	// Validate the popularity spec up front in every mode, so a typo fails
	// fast instead of mid-run.
	if _, err := generator.ParseDist(cfg.dist, len(picks), cfg.seed); err != nil {
		return err
	}

	var report *loadReport
	switch {
	case cfg.sweep != "":
		report, err = runSweep(&cfg, picks)
	case cfg.loop == "open":
		report, err = driveOpen(&cfg, picks, cfg.rate)
	default:
		report, err = drive(&cfg, picks)
	}
	if err != nil {
		return err
	}
	snap, err := fetchStats(&http.Client{Timeout: cfg.timeout}, cfg.url)
	if err != nil {
		fmt.Fprintf(w, "leaload: %s/statsz unavailable: %v\n", cfg.url, err)
	}
	report.Server = snap
	meta := perfobs.CollectMeta()
	report.stamp(meta)
	if err := report.write(w, cfg.jsonOut); err != nil {
		return err
	}
	if cfg.benchOut != "" {
		if err := writeBenchRecord(cfg.benchOut, report); err != nil {
			return fmt.Errorf("bench-out: %w", err)
		}
	}
	if cfg.trajectory != "" {
		rec := loadRecord(&cfg, report, meta)
		if err := store.Open(cfg.trajectory).Append(rec); err != nil {
			return fmt.Errorf("trajectory: %w", err)
		}
		// The note goes to stderr so a -json report piped to a file stays a
		// single clean JSON document.
		fmt.Fprintf(os.Stderr, "leaload: trajectory: appended %s record %s under %s\n",
			rec.Kind, rec.RunID, cfg.trajectory)
	}
	if cfg.strict {
		if report.Errors > 0 {
			return fmt.Errorf("strict: %d of %d requests failed", report.Errors, report.Requests)
		}
		if report.Omitted > 0 {
			return fmt.Errorf("strict: %d scheduled requests omitted past the cutoff", report.Omitted)
		}
	}
	if cfg.requireWarm {
		if report.Server == nil {
			return fmt.Errorf("require-warm: server stats unavailable")
		}
		if report.Server.CacheHits == 0 || report.Server.SolvesIncremental == 0 {
			return fmt.Errorf("require-warm: cache hits %d, incremental solves %d — warm path not exercised",
				report.Server.CacheHits, report.Server.SolvesIncremental)
		}
	}
	return nil
}

// namedProgram is one corpus entry: a rendered TAC request body component.
type namedProgram struct {
	class string
	name  string
	text  string
}

// buildCorpus renders the weighted workload corpus as TAC texts and returns
// the weighted pick list (each entry repeated by its class weight). The
// popularity distribution (-dist) draws ranks over this list, so class
// weights shape the rank space and zipfian/hotspot skew concentrates on the
// earliest entries.
func buildCorpus(cfg *loadConfig) ([]namedProgram, error) {
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	classes, err := workload.Programs(rng, cfg.shapes, cfg.instrs)
	if err != nil {
		return nil, err
	}
	var picks []namedProgram
	for _, class := range workload.ProgramClasses() {
		weight := weights[class]
		if weight <= 0 {
			continue
		}
		for _, p := range classes[class] {
			var buf bytes.Buffer
			if err := ir.Format(&buf, p); err != nil {
				return nil, fmt.Errorf("render %s program: %w", class, err)
			}
			np := namedProgram{class: class, name: p.Tasks[0].Name, text: buf.String()}
			for k := 0; k < weight; k++ {
				picks = append(picks, np)
			}
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("mix %q selects no programs", cfg.mix)
	}
	return picks, nil
}

// allocRequest builds the request body the driver sends for one program.
func allocRequest(cfg *loadConfig, program string) *engine.Request {
	return &engine.Request{
		Program: program,
		Options: engine.RequestOptions{Registers: cfg.registers, MemDivisor: cfg.memdiv},
	}
}

// parseMix parses "class=weight,..." into integer weights.
func parseMix(mix string) (map[string]int, error) {
	known := map[string]bool{}
	for _, c := range workload.ProgramClasses() {
		known[c] = true
	}
	out := map[string]int{}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || !known[kv[0]] {
			return nil, fmt.Errorf("bad mix element %q (classes: %s)", part, strings.Join(workload.ProgramClasses(), ", "))
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad mix weight in %q", part)
		}
		out[kv[0]] = n
	}
	return out, nil
}

// parseSweep parses the comma-separated offered-rate trajectory.
func parseSweep(spec string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q (positive req/s, comma-separated)", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("sweep %q selects no rates", spec)
	}
	return rates, nil
}

// allocResponse is the subset of the server reply the driver inspects.
type allocResponse struct {
	Blocks []struct {
		CacheHit bool `json:"cache_hit"`
		Stats    struct {
			Solver struct {
				Incremental bool `json:"incremental"`
			} `json:"solver"`
		} `json:"stats"`
	} `json:"blocks"`
}

// workerTally is one worker's local aggregate, merged after the run.
type workerTally struct {
	requests  int64
	errors    int64
	hits      int64
	incr      int64
	byClass   map[string]int64
	errByCode map[string]int64
	latency   *engine.Histogram
}

// newWorkerTally builds an empty tally.
func newWorkerTally() *workerTally {
	return &workerTally{
		byClass:   map[string]int64{},
		errByCode: map[string]int64{},
		latency:   &engine.Histogram{},
	}
}

// record tallies one completed request.
func (t *workerTally) record(p *namedProgram, resp *allocResponse, err error) {
	t.requests++
	t.byClass[p.class]++
	if err != nil {
		t.errors++
		t.errByCode[errCode(err)]++
		return
	}
	for _, b := range resp.Blocks {
		if b.CacheHit {
			t.hits++
		}
		if b.Stats.Solver.Incremental {
			t.incr++
		}
	}
}

// newHTTPClient builds the shared load client.
func newHTTPClient(cfg *loadConfig) *http.Client {
	return &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.workers * 2,
			MaxIdleConnsPerHost: cfg.workers * 2,
		},
	}
}

// drive runs the closed loop until the deadline and merges the tallies.
// Each worker draws programs from its own seeded copy of the popularity
// distribution, so the mix is skew-shaped but the run stays replayable.
func drive(cfg *loadConfig, picks []namedProgram) (*loadReport, error) {
	client := newHTTPClient(cfg)
	dists := make([]generator.KeyDist, cfg.workers)
	for i := range dists {
		d, err := generator.ParseDist(cfg.dist, len(picks), cfg.seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		dists[i] = d
	}
	deadline := time.Now().Add(cfg.duration)
	tallies := make([]*workerTally, cfg.workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		t := newWorkerTally()
		tallies[i] = t
		dist := dists[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p := &picks[dist.Next()]
				start := time.Now()
				resp, err := postAllocate(client, cfg, p.text)
				t.latency.Observe(time.Since(start))
				t.record(p, resp, err)
			}
		}()
	}
	wg.Wait()

	report := newLoadReport(cfg)
	merged := &engine.Histogram{}
	for _, t := range tallies {
		report.fold(t)
		merged.Merge(t.latency)
	}
	report.Latency = merged.Snapshot()
	if report.Duration > 0 {
		report.ThroughputRPS = float64(report.Requests-report.Errors) / report.Duration
	}
	return report, nil
}

// driveOpen runs one open-loop stage at the given offered rate: a seeded
// arrival schedule, coordinated-omission-safe latency accounting and
// warmup/steady separation, all via internal/workload/generator.
func driveOpen(cfg *loadConfig, picks []namedProgram, rate float64) (*loadReport, error) {
	client := newHTTPClient(cfg)
	arr, err := generator.ParseArrival(cfg.arrival, rate, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	keys, err := generator.ParseDist(cfg.dist, len(picks), cfg.seed+2)
	if err != nil {
		return nil, err
	}
	sched, err := generator.NewScheduler(generator.ScheduleConfig{
		Arrival:  arr,
		Keys:     keys,
		Warmup:   cfg.warmup,
		Duration: cfg.duration,
	})
	if err != nil {
		return nil, err
	}

	// The senders share one tally; the runner's histograms carry the latency
	// story, so the tally only needs counters and maps behind a mutex.
	var mu sync.Mutex
	tally := newWorkerTally()
	record := func(p *namedProgram, resp *allocResponse, err error) {
		mu.Lock()
		defer mu.Unlock()
		tally.record(p, resp, err)
	}
	open, err := generator.RunOpenLoop(generator.RunConfig{
		Scheduler: sched,
		Senders:   cfg.workers,
		Cutoff:    cfg.cutoff,
		Send: func(op generator.Op) error {
			p := &picks[op.Key]
			resp, err := postAllocate(client, cfg, p.text)
			record(p, resp, err)
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	report := newLoadReport(cfg)
	report.OfferedRPS = open.OfferedRPS
	report.Open = open
	report.Omitted = open.Omitted
	report.fold(tally)
	// The headline latency of an open-loop run is the steady-state
	// intended-start histogram: coordinated-omission-safe by construction.
	report.Latency = open.Steady.Latency
	report.ThroughputRPS = open.AchievedRPS
	report.Duration = open.ElapsedS
	return report, nil
}

// runSweep steps the offered rate through the -sweep trajectory, one
// open-loop stage per rate, and locates the knee: the highest offered rate
// whose steady-state p99 meets the -knee-p99 budget with zero omissions and
// zero errors.
func runSweep(cfg *loadConfig, picks []namedProgram) (*loadReport, error) {
	rates, err := parseSweep(cfg.sweep)
	if err != nil {
		return nil, err
	}
	report := newLoadReport(cfg)
	report.Duration = 0 // accumulated per stage below
	var last *loadReport
	for _, rate := range rates {
		stage, err := driveOpen(cfg, picks, rate)
		if err != nil {
			return nil, fmt.Errorf("sweep stage %.0f req/s: %w", rate, err)
		}
		s := sweepStage{
			OfferedRPS:  stage.OfferedRPS,
			AchievedRPS: stage.ThroughputRPS,
			Requests:    stage.Requests,
			Errors:      stage.Errors,
			Omitted:     stage.Omitted,
			P50NS:       stage.Open.Steady.Latency.P50NS,
			P99NS:       stage.Open.Steady.Latency.P99NS,
			MaxLagNS:    stage.Open.MaxLagNS,
		}
		report.Sweep = append(report.Sweep, s)
		if s.Errors == 0 && s.Omitted == 0 && s.P99NS <= cfg.kneeP99.Nanoseconds() && s.OfferedRPS > report.KneeRPS {
			report.KneeRPS = s.OfferedRPS
		}
		report.Requests += stage.Requests
		report.Errors += stage.Errors
		report.Omitted += stage.Omitted
		report.BlocksCacheHit += stage.BlocksCacheHit
		report.BlocksIncremental += stage.BlocksIncremental
		for c, n := range stage.ByClass {
			report.ByClass[c] += n
		}
		for c, n := range stage.ByError {
			report.ByError[c] += n
		}
		report.Duration += stage.Duration
		last = stage
	}
	// The headline numbers follow the final stage — the deepest point of the
	// trajectory; the per-stage story lives in Sweep.
	report.Latency = last.Latency
	report.ThroughputRPS = last.ThroughputRPS
	report.OfferedRPS = last.OfferedRPS
	report.Open = last.Open
	return report, nil
}

// postAllocate issues one allocation request.
func postAllocate(client *http.Client, cfg *loadConfig, program string) (*allocResponse, error) {
	body, err := json.Marshal(allocRequest(cfg, program))
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(cfg.url+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var ar allocResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &ar, nil
}

// errCode buckets an error for the by-error report.
func errCode(err error) string {
	msg := err.Error()
	switch {
	case strings.HasPrefix(msg, "http "):
		return strings.SplitN(msg, ":", 2)[0]
	case strings.HasPrefix(msg, "transport"):
		return "transport"
	case strings.HasPrefix(msg, "decode"):
		return "decode"
	default:
		return "other"
	}
}

// fetchStats pulls the daemon's /statsz snapshot.
func fetchStats(client *http.Client, url string) (*engine.Snapshot, error) {
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var snap engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// sweepStage is one offered-rate step of a -sweep trajectory.
type sweepStage struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Omitted     int64   `json:"omitted"`
	P50NS       int64   `json:"p50_ns"`
	P99NS       int64   `json:"p99_ns"`
	MaxLagNS    int64   `json:"max_lag_ns"`
}

// loadReport is the run summary; -json emits it verbatim. Server is the
// daemon's /statsz snapshot; ByError counts failed requests by error code.
// Open-loop runs add the
// coordinated-omission-safe per-phase breakdown under Open, and sweeps add
// the per-rate trajectory under Sweep.
type loadReport struct {
	// Provenance stamps (additive: reports written before these fields
	// existed still parse everywhere they are read back).
	Commit    string        `json:"commit,omitempty"`
	Dirty     bool          `json:"dirty,omitempty"`
	GoVersion string        `json:"go_version,omitempty"`
	Host      *perfobs.Host `json:"host_fingerprint,omitempty"`

	Workers           int                      `json:"workers"`
	Duration          float64                  `json:"duration_s"`
	Mix               string                   `json:"mix"`
	Loop              string                   `json:"loop"`
	Dist              string                   `json:"dist"`
	Arrival           string                   `json:"arrival,omitempty"`
	OfferedRPS        float64                  `json:"offered_rps,omitempty"`
	Requests          int64                    `json:"requests"`
	Errors            int64                    `json:"errors"`
	Omitted           int64                    `json:"omitted"`
	ThroughputRPS     float64                  `json:"throughput_rps"`
	BlocksCacheHit    int64                    `json:"blocks_cache_hit"`
	BlocksIncremental int64                    `json:"blocks_incremental"`
	ByClass           map[string]int64         `json:"by_class"`
	ByError           map[string]int64         `json:"by_error,omitempty"`
	Latency           engine.HistogramSnapshot `json:"latency"`
	Open              *generator.RunReport     `json:"open,omitempty"`
	Sweep             []sweepStage             `json:"sweep,omitempty"`
	KneeRPS           float64                  `json:"knee_rps,omitempty"`
	Server            *engine.Snapshot         `json:"server,omitempty"`
}

// newLoadReport builds the report skeleton for cfg.
func newLoadReport(cfg *loadConfig) *loadReport {
	r := &loadReport{
		Workers:  cfg.workers,
		Duration: cfg.duration.Seconds(),
		Mix:      cfg.mix,
		Loop:     cfg.loop,
		Dist:     cfg.dist,
		ByClass:  map[string]int64{},
		ByError:  map[string]int64{},
	}
	if cfg.loop == "open" {
		r.Arrival = cfg.arrival
	}
	return r
}

// fold merges one tally's counters into the report.
func (r *loadReport) fold(t *workerTally) {
	r.Requests += t.requests
	r.Errors += t.errors
	r.BlocksCacheHit += t.hits
	r.BlocksIncremental += t.incr
	for c, n := range t.byClass {
		r.ByClass[c] += n
	}
	for c, n := range t.errByCode {
		r.ByError[c] += n
	}
}

// stamp copies the provenance block onto the report.
func (r *loadReport) stamp(meta perfobs.Meta) {
	r.Commit = meta.Commit
	r.Dirty = meta.Dirty
	r.GoVersion = meta.GoVersion
	host := meta.Host
	r.Host = &host
}

// warmHitRatio derives the server-side cache hit ratio, or -1 when no server
// stats were reachable (so trend tooling can tell "no data" from "0% warm").
func (r *loadReport) warmHitRatio() float64 {
	if r.Server == nil {
		return -1
	}
	total := r.Server.CacheHits + r.Server.CacheMisses
	if total == 0 {
		return -1
	}
	return float64(r.Server.CacheHits) / float64(total)
}

// trajectoryLabel names the scenario so the trend store only compares
// like-for-like runs: loop discipline, popularity distribution and (open
// loop) the offered rate.
func trajectoryLabel(cfg *loadConfig) string {
	switch {
	case cfg.sweep != "":
		return fmt.Sprintf("sweep/%s", cfg.dist)
	case cfg.loop == "open":
		return fmt.Sprintf("open/%s/rate=%g", cfg.dist, cfg.rate)
	default:
		return fmt.Sprintf("closed/%s/workers=%d", cfg.dist, cfg.workers)
	}
}

// loadRecord turns the run report into a kind "load" trajectory record: a
// summary row with the headline numbers, plus one row per sweep stage.
func loadRecord(cfg *loadConfig, r *loadReport, meta perfobs.Meta) *perfobs.Record {
	rec := perfobs.NewRecord("load", trajectoryLabel(cfg), meta)
	summary := map[string]float64{
		"throughput_rps": r.ThroughputRPS,
		"p50_ns":         float64(r.Latency.P50NS),
		"p95_ns":         float64(r.Latency.P95NS),
		"p99_ns":         float64(r.Latency.P99NS),
		"requests":       float64(r.Requests),
		"errors":         float64(r.Errors),
		"omitted":        float64(r.Omitted),
	}
	if ratio := r.warmHitRatio(); ratio >= 0 {
		summary["warm_hit_ratio"] = ratio
	}
	if r.OfferedRPS > 0 {
		summary["offered_rps"] = r.OfferedRPS
	}
	if r.KneeRPS > 0 {
		summary["knee_rps"] = r.KneeRPS
	}
	rec.AddRow("summary", summary)
	for _, s := range r.Sweep {
		rec.AddRow(fmt.Sprintf("sweep_%.0frps", s.OfferedRPS), map[string]float64{
			"offered_rps":  s.OfferedRPS,
			"achieved_rps": s.AchievedRPS,
			"p50_ns":       float64(s.P50NS),
			"p99_ns":       float64(s.P99NS),
			"errors":       float64(s.Errors),
			"omitted":      float64(s.Omitted),
		})
	}
	return rec
}

// benchRecord is the BENCH_load.json document: the load report plus a schema
// tag so trend tooling can tell trajectory records from other BENCH files.
type benchRecord struct {
	Schema string      `json:"schema"`
	Report *loadReport `json:"report"`
}

// writeBenchRecord writes the machine-readable run record to path.
func writeBenchRecord(path string, report *loadReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchRecord{Schema: "leaload/v1", Report: report}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// write renders the report as text or JSON.
func (r *loadReport) write(w io.Writer, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	fmt.Fprintf(w, "leaload: %d workers, %s loop, dist %s for %.1fs against mix %s\n",
		r.Workers, r.Loop, r.Dist, r.Duration, r.Mix)
	if r.Loop == "open" && r.Open != nil {
		fmt.Fprintf(w, "offered:         %.1f req/s (%s arrivals), achieved %.1f req/s\n",
			r.OfferedRPS, r.Arrival, r.ThroughputRPS)
		fmt.Fprintf(w, "schedule:        %d ops, %d sent, %d omitted, max lag %s\n",
			r.Open.Scheduled, r.Open.Sent, r.Open.Omitted, time.Duration(r.Open.MaxLagNS))
		fmt.Fprintf(w, "warmup:          %d ops, p99 %s (intended-start)\n",
			r.Open.Warmup.Ops, time.Duration(r.Open.Warmup.Latency.P99NS))
		fmt.Fprintf(w, "steady latency:  p50 %s  p95 %s  p99 %s  max %s (intended-start)\n",
			time.Duration(r.Open.Steady.Latency.P50NS), time.Duration(r.Open.Steady.Latency.P95NS),
			time.Duration(r.Open.Steady.Latency.P99NS), time.Duration(r.Open.Steady.Latency.MaxNS))
		fmt.Fprintf(w, "steady service:  p50 %s  p99 %s (send-to-reply, the closed-loop view)\n",
			time.Duration(r.Open.Steady.Service.P50NS), time.Duration(r.Open.Steady.Service.P99NS))
	} else {
		fmt.Fprintf(w, "requests:        %d (%d failed)\n", r.Requests, r.Errors)
		fmt.Fprintf(w, "throughput:      %.1f req/s\n", r.ThroughputRPS)
		fmt.Fprintf(w, "latency:         p50 %s  p95 %s  p99 %s  max %s\n",
			time.Duration(r.Latency.P50NS), time.Duration(r.Latency.P95NS),
			time.Duration(r.Latency.P99NS), time.Duration(r.Latency.MaxNS))
	}
	if r.Loop == "open" {
		fmt.Fprintf(w, "requests:        %d (%d failed, %d omitted)\n", r.Requests, r.Errors, r.Omitted)
	}
	for _, s := range r.Sweep {
		fmt.Fprintf(w, "  sweep %7.0f req/s: achieved %7.0f, p50 %s, p99 %s, %d errors, %d omitted\n",
			s.OfferedRPS, s.AchievedRPS, time.Duration(s.P50NS), time.Duration(s.P99NS), s.Errors, s.Omitted)
	}
	if len(r.Sweep) > 0 {
		if r.KneeRPS > 0 {
			fmt.Fprintf(w, "knee:            %.0f req/s (highest offered rate meeting the p99 budget)\n", r.KneeRPS)
		} else {
			fmt.Fprintf(w, "knee:            none — every stage missed the p99 budget\n")
		}
	}
	var classes []string
	for c := range r.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "  class %-9s %d requests\n", c+":", r.ByClass[c])
	}
	var codes []string
	for c := range r.ByError {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "  error %-9s %d requests\n", c+":", r.ByError[c])
	}
	fmt.Fprintf(w, "warm path:       %d cache-hit blocks, %d incremental solves (client view)\n",
		r.BlocksCacheHit, r.BlocksIncremental)
	if r.Server != nil {
		s := r.Server
		total := s.CacheHits + s.CacheMisses
		ratio := 0.0
		if total > 0 {
			ratio = float64(s.CacheHits) / float64(total)
		}
		fmt.Fprintf(w, "server:          cache %d/%d hits (%.0f%%), %d evictions; solves cold %d / warm %d / incremental %d\n",
			s.CacheHits, total, 100*ratio, s.CacheEvictions, s.SolvesCold, s.SolvesWarm, s.SolvesIncremental)
		fmt.Fprintf(w, "server latency:  p50 %s  p99 %s (requests), p50 %s (solve)\n",
			time.Duration(s.RequestLatency.P50NS), time.Duration(s.RequestLatency.P99NS),
			time.Duration(s.SolveLatency.P50NS))
	}
	return nil
}
