// Command perfbench is the repository's end-to-end benchmark. It drives the
// allocator only through public entry points, from one process, and
// verifies every output against an independent oracle.
//
// Workloads:
//
//	serve_warm    open loop (Poisson, fixed rate) then closed loop over ~100
//	              zipfian-popular small programs through
//	              transport.NewMux(engine.New) in-process: the front end works,
//	              the solver re-solves delta-zero
//	compile_cold  closed loop of never-repeated 50–200-instruction programs
//	              through the same handler: template build and cold solve
//	dse_sweep     persistent sweep.Runners over RSP, EWF and FDCT8, registers
//	              1..32 × divisors {1,2,4}, static and activity costs
//
// Throughput and latency come from the closed loops (for dse_sweep, from
// whole-grid sweeps), as medians over short windows of the run; serve_warm's
// open-loop latency and the generator's lateness are reported beside them.
//
// With -trace 0 the last stdout line reports the end-to-end metrics; with
// -trace 1 the same inputs are also replayed through each layer's public
// functions with spans around every call, the spans are written to
// -spans-dir, and the last line reports the per-layer metrics.
//
// Usage:
//
//	perfbench -workload serve_warm -seed 1 -seconds 20 -trace 0 -rate 1000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/perfobs"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	rate     float64
	workers  int
	spansDir string
	cacheDir string
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the last output line carries with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"energy_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"alloc_bytes_per_op", "B/op"},
}

var perLayer = []metricDef{
	{"transport.decode_us", "us"},
	{"transport.encode_us", "us"},
	{"engine.self_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.evictions_per_op", "count/op"},
	{"engine.queue_depth_mean", "count"},
	{"engine.rejected_frac", "ratio"},
	{"engine.stage_sum_over_latency", "ratio"},
	{"ir.parse_us", "us"},
	{"sched.list_us", "us"},
	{"lifetime.from_schedule_us", "us"},
	{"lifetime.split_us", "us"},
	{"netbuild.template_us", "us"},
	{"netbuild.price_us", "us"},
	{"netbuild.arcs_per_block", "count"},
	{"netbuild.nodes_per_block", "count"},
	{"flow.solve_us", "us"},
	{"flow.augmentations_per_solve", "count"},
	{"flow.dijkstra_iters_per_solve", "count"},
	{"flow.bucket_phase_frac", "ratio"},
	{"flow.incremental_frac", "ratio"},
	{"core.prepare_us", "us"},
	{"core.decode_us", "us"},
	{"sweep.self_us", "us"},
	{"sweep.feasible_frac", "ratio"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.open_p50_ms", "ms"},
	{"gen.open_p99_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kop", "count/kop"},
	{"replay.unattributed_frac", "ratio"},
	{"replay.tracing_overhead_frac", "ratio"},
	{"replay.requests", "count"},
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, notes and verdict.
type report struct {
	e2e, layers map[string]value
	notes       []string
	problems    []string
	examples    []string
	attempted   int64
	failed      int64
	spans       []span
}

func newReport() *report {
	return &report{e2e: make(map[string]value), layers: make(map[string]value)}
}

func (r *report) metric(name string, v float64, unit string) { r.e2e[name] = value{v, unit} }
func (r *report) layer(name string, v float64, unit string)  { r.layers[name] = value{v, unit} }
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a problem that makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failure keeps a few examples of wrong outputs for the log.
func (r *report) failure(msg string) {
	if len(r.examples) < 5 {
		r.examples = append(r.examples, msg)
	}
}

// spanCheck asserts that within every span tree the self times sum to no
// more than the root's duration.
func (r *report) spanCheck(spans []span) {
	if bad := selfOverRoot(spans); bad > 0 {
		r.fail("spans: %d span trees whose self times exceed their root", bad)
	}
}

// result is the last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	cfg := &config{}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve_warm, compile_cold or dse_sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the run traced and reports per-layer metrics")
	flag.Float64Var(&cfg.rate, "rate", 1000, "serve_warm open-loop offered rate, requests/s")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.cacheDir, "cache-dir", ".bench_build/oracle", "directory the oracle keeps its answers in between runs of one build")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	// At most nproc senders and engine workers, and never more than two.
	cfg.workers = min(2, runtime.NumCPU())
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	if cfg.seconds <= 0 || cfg.rate <= 0 || (cfg.workload != "serve_warm" && cfg.workload != "compile_cold" && cfg.workload != "dse_sweep") {
		return fmt.Errorf("need -workload serve_warm|compile_cold|dse_sweep, positive -seconds and -rate")
	}
	meta := perfobs.CollectMeta()
	stamp, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n", stamp)
	fmt.Printf("workload %s seed %d seconds %s trace %t workers %d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.workers)
	rep := newReport()
	if cfg.workload == "dse_sweep" {
		err = runDSE(cfg, rep)
	} else {
		err = runServe(cfg, rep)
	}
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, e := range rep.examples {
		fmt.Println("wrong:", e)
	}
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}
	res := result{Correct: rep.failed == 0 && len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]value)}
	defs, got := endToEnd, rep.e2e
	for _, d := range endToEnd {
		fmt.Printf("metric %-30s %14.6g %s\n", d.name, rep.e2e[d.name].Value, d.unit)
	}
	if cfg.trace {
		defs, got = perLayer, rep.layers
		for _, d := range perLayer {
			v, ok := rep.layers[d.name]
			note := ""
			if !ok {
				note = " (not exercised by this workload)"
			}
			fmt.Printf("layer  %-30s %14.6g %s%s\n", d.name, v.Value, d.unit, note)
		}
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, meta, rep.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, d := range defs {
		res.Metrics[d.name] = value{got[d.name].Value, d.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
