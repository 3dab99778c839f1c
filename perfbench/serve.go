package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/serve/engine"
	"repro/internal/serve/transport"
	"repro/internal/workload/generator"
)

// Run-shape constants shared by the serving workloads.
const (
	setupReps  = 7          // timed set-ups per run; setup_s is their median
	minSamples = 1000       // latency samples per run, so p99 has ten beyond it
	coldPregen = coldCorpus // compile_cold programs generated during set-up

	// Throughput is the median rate over slices of the closed loop this
	// long: long enough to hold hundreds of requests, short enough that a
	// few seconds hold many of them.
	warmSlice = 250 * time.Millisecond
	coldSlice = time.Second
)

// serveRun is one serving workload's state: the engine behind an
// in-process mux, the senders and everything they recorded.
type serveRun struct {
	cfg     *config
	opts    engine.RequestOptions
	eng     *engine.Engine
	store   *bodyStore
	senders []*sender
	prog    func(int) *program
}

func newServeRun(cfg *config, prog func(int) *program) (*serveRun, error) {
	o, err := defaultOptions()
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{Workers: cfg.workers})
	mux := transport.NewMux(eng)
	r := &serveRun{cfg: cfg, opts: o, eng: eng, store: newBodyStore(), prog: prog}
	for i := 0; i < cfg.workers; i++ {
		r.senders = append(r.senders, newSender(mux, r.store))
	}
	return r, nil
}

func (r *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.eng.Close(ctx) // every request has returned; closing only stops the workers
}

// fill sends each listed program once from one sender: the warm workload's
// cache fill, part of its set-up.
func (r *serveRun) fill(keys []int) []sample {
	out := make([]sample, 0, len(keys))
	for i, k := range keys {
		out = append(out, sample{outcome: r.senders[0].send(k, r.prog(k)), seq: int64(i)})
	}
	return out
}

// queueSampler polls the engine's queue-depth gauge until stopped. It
// reads the registry gauge behind Snapshot().QueueDepth directly: a full
// Snapshot a thousand times a second would load the engine it measures.
type queueSampler struct {
	stop, done chan struct{}
	sum, n     int64
}

func sampleQueue(eng *engine.Engine, every time.Duration) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	depth := eng.Metrics().Gauge("queue_depth")
	go func() {
		defer close(q.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				q.sum += depth.Value()
				q.n++
			}
		}
	}()
	return q
}

// mean stops the sampler, waits for it, and returns the mean depth.
func (q *queueSampler) mean() float64 {
	close(q.stop)
	<-q.done
	return ratio(float64(q.sum), float64(q.n))
}

// sortSamples orders samples by sequence number.
func sortSamples(s []sample) {
	sort.Slice(s, func(i, j int) bool { return s[i].seq < s[j].seq })
}

// latencyMS returns the p50 and p99 latency in ms of the timed samples, and
// their count. With at least three windows' worth, each is the median over
// as many equal, consecutive windows of at least minSamples each as the
// samples fill: a stall (a GC cycle, a noisy neighbour) then moves one
// window's figures, not the reported ones. With fewer, both come from all
// the samples at once.
func latencyMS(samples []sample) (p50, p99 float64, n int) {
	var lat []float64
	for _, s := range samples {
		if !s.warmup {
			lat = append(lat, float64(s.latency)/1e6)
		}
	}
	n = len(lat)
	windows := n / minSamples
	if windows < 3 {
		windows = 1
	}
	var mids, tails []float64
	for w := 0; w < windows; w++ {
		win := sortedCopy(lat[w*n/windows : (w+1)*n/windows])
		mids = append(mids, percentile(win, 50))
		tails = append(tails, percentile(win, 99))
	}
	return median(mids), median(tails), n
}

// throughput is the median completion rate over equal slices of a closed
// loop's duration, each about `slice` long.
func throughput(samples []sample, start time.Time, dur, slice time.Duration) float64 {
	windows := max(1, int(dur/slice))
	counts := make([]float64, windows)
	for _, s := range samples {
		w := int(int64(s.target.Add(s.latency).Sub(start)) * int64(windows) / int64(dur))
		if w >= 0 && w < windows {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= (dur / time.Duration(windows)).Seconds()
	}
	return median(counts)
}

// energyRatio sums reference energy over all-memory baseline energy across
// the given programs; it depends only on the inputs.
func energyRatio(refs map[int]*reference, keys []int) float64 {
	var e, base float64
	for _, k := range keys {
		ref := refs[k]
		if ref == nil || ref.rejected {
			continue
		}
		for _, b := range ref.blocks {
			e += b.energy
			base += b.baseline
		}
	}
	return ratio(e, base)
}

// stream hands out programs by the position they are served in: the warm
// corpus, or the cold run's order through the cold corpus, generated past
// the programs made during set-up on demand.
type stream struct {
	mu    sync.Mutex
	progs []*program
	cold  *coldOrder
}

func (s *stream) get(k int) *program {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cold != nil && len(s.progs) <= k {
		p, err := coldProgram(s.cold.index(len(s.progs)))
		if err != nil {
			panic(err) // RandomProgram fails only for a non-positive size
		}
		s.progs = append(s.progs, p)
	}
	return s.progs[k]
}

// setupServe builds the corpus and a fresh engine (the warm workload also
// fills the template cache with every program) once untimed, so the heap
// has grown to its working size, then setupReps times from a collected
// heap, and reports the median as setup_s. It returns the last set-up and
// the outcomes of its cache fill.
func setupServe(cfg *config, rep *report, warm bool) (*serveRun, *stream, []sample, error) {
	var (
		run    *serveRun
		src    *stream
		fill   []sample
		setups []float64
	)
	for i := 0; i <= setupReps; i++ {
		if run != nil {
			run.close()
			run, src = nil, nil // collectable by the GC below
		}
		runtime.GC()
		t0 := time.Now()
		if warm {
			progs, err := warmCorpus(warmCorpusSeed)
			if err != nil {
				return nil, nil, nil, err
			}
			src = &stream{progs: progs}
		} else {
			order := newColdOrder(cfg.seed)
			src = &stream{cold: &order}
			src.get(coldPregen - 1)
		}
		var err error
		if run, err = newServeRun(cfg, src.get); err != nil {
			return nil, nil, nil, err
		}
		if warm {
			keys := make([]int, len(src.progs))
			for k := range keys {
				keys[k] = k
			}
			fill = run.fill(keys)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	rep.metric("setup_s", median(setups), "s")
	return run, src, fill, nil
}

// measured is what a serving workload's timed region recorded.
type measured struct {
	open         []sample // serve_warm's open loop
	lat, all     []sample // closed-loop latency samples; every measured request
	tput         float64
	start        time.Time
	window       time.Duration
	rt           rtDelta
	peakRSS      float64
	snap0, snap1 engine.Snapshot
	queue        float64
}

// measureServe runs the timed region. serve_warm: an open loop at the
// configured rate for a quarter of the run, then a closed loop for the rest.
// compile_cold: a closed loop over the stream for the run length and at
// least minSamples requests. The closed loops give the throughput and the
// latency; the open loop's latency is reported with the generator's
// figures.
func measureServe(cfg *config, run *serveRun, src *stream, warm bool) (*measured, error) {
	var q *queueSampler
	if cfg.trace {
		q = sampleQueue(run.eng, time.Millisecond)
	}
	m := &measured{snap0: run.eng.Snapshot(), start: time.Now()}
	rt0 := readRuntime()
	if warm {
		open, warmup := cfg.seconds/4, cfg.seconds/20
		opened, err := openLoop(run.senders, src.progs, cfg.rate, warmup, open-warmup, cfg.seed)
		if err != nil {
			return nil, err
		}
		zipfs := make([]*generator.Zipfian, cfg.workers)
		for i := range zipfs {
			if zipfs[i], err = generator.NewZipfian(len(src.progs), zipfTheta, cfg.seed+int64(100+i)); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		closed, el := closedLoop(run.senders, src.get, func(c int, _ int64) int { return zipfs[c].Next() }, cfg.seconds-open, 0)
		m.open, m.lat, m.tput = opened, closed, throughput(closed, start, el, warmSlice)
		m.all = append(append(m.all, opened...), closed...)
	} else {
		closed, el := closedLoop(run.senders, src.get, func(_ int, seq int64) int { return int(seq) }, cfg.seconds, minSamples)
		m.lat, m.all, m.tput = closed, closed, throughput(closed, m.start, el, coldSlice)
	}
	m.window = time.Since(m.start)
	m.rt = rt0.to(readRuntime())
	m.peakRSS = peakRSSMB()
	m.snap1 = run.eng.Snapshot()
	if q != nil {
		m.queue = q.mean()
	}
	return m, nil
}

// runServe runs serve_warm or compile_cold.
func runServe(cfg *config, rep *report) error {
	warm := cfg.workload == "serve_warm"
	run, src, fill, err := setupServe(cfg, rep, warm)
	if err != nil {
		return err
	}
	defer run.close()
	m, err := measureServe(cfg, run, src, warm)
	if err != nil {
		return err
	}

	p50, p99, n := latencyMS(m.lat)
	rep.metric("throughput_ops_s", m.tput, "ops/s")
	rep.metric("latency_p50_ms", p50, "ms")
	rep.metric("latency_p99_ms", p99, "ms")
	rep.notef("latency samples: %d, closed loop", n)
	if n < minSamples {
		rep.notef("warning: %d latency samples, fewer than %d", n, minSamples)
	}
	var lags []float64
	var openP50, openP99 float64
	if warm {
		for _, s := range m.open {
			if !s.warmup {
				lags = append(lags, float64(s.lag)/1e6)
			}
		}
		sort.Float64s(lags)
		var on int
		openP50, openP99, on = latencyMS(m.open)
		rep.notef("open loop at %g requests/s: %d latency samples, p50 %.4f ms, p99 %.4f ms; generator lateness p50 %.4f ms, p99 %.4f ms",
			cfg.rate, on, openP50, openP99, percentile(lags, 50), percentile(lags, 99))
	}

	// The oracle runs after the timed region.
	served := make(map[int]*program)
	for _, set := range [][]sample{fill, m.all} {
		for _, s := range set {
			served[int(s.prog)] = src.get(int(s.prog))
		}
	}
	cache, err := openRefCache(cfg.cacheDir)
	if err != nil {
		return err
	}
	refs := references(served, run.opts, cfg.workers, cache)
	if err := cache.save(); err != nil {
		return err
	}
	bad := verdicts(refs, run.store)
	wrong := func(set []sample) (n int64) {
		for _, s := range set {
			if err, ok := bad[respKey{s.prog, s.hash}]; ok || s.status < 0 {
				n++
				if err != nil {
					rep.failure(fmt.Sprintf("%s: %v", src.get(int(s.prog)).name, err))
				}
			}
		}
		return n
	}
	if f := wrong(fill); f > 0 {
		rep.fail("%d cache-fill responses wrong", f)
	}
	rep.attempted, rep.failed = int64(len(m.all)), wrong(m.all)
	crossChecked, disputed, refused := 0, 0, 0
	for _, ref := range refs {
		crossChecked += ref.crossCheck
		if ref.disputed {
			disputed++
		}
		if ref.rejected {
			refused++
		}
	}
	rep.notef("oracle: %d programs certified with core Debug (%d of them in earlier runs of this build; %d rejected, as the engine must reject them), %d blocks cross-checked against cyclecancel, %d disputed",
		len(refs), len(refs)-cache.added, refused, crossChecked, disputed)
	rep.notef("error_frac = %.6f ratio (%d wrong of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)

	// The warm ratio covers the whole corpus; the cold one the first
	// minSamples programs of the stream, which every run serves.
	limit := minSamples
	if warm {
		limit = len(src.progs)
	}
	keys := make([]int, limit)
	for k := range keys {
		keys[k] = k
	}
	rep.metric("energy_ratio", energyRatio(refs, keys), "ratio")
	rep.metric("peak_rss_mb", m.peakRSS, "MB")
	rep.metric("alloc_bytes_per_op", ratio(m.rt.AllocBytes, float64(len(m.all))), "B/op")
	if !cfg.trace {
		return nil
	}

	ops := float64(len(m.all))
	var rejected float64
	for _, s := range m.all {
		if s.status == http.StatusBadRequest {
			rejected++
		}
	}
	s0, s1 := m.snap0, m.snap1
	d := func(a, b int64) float64 { return float64(b - a) }
	hits, misses := d(s0.CacheHits, s1.CacheHits), d(s0.CacheMisses, s1.CacheMisses)
	stages := d(s0.StageSplitNS, s1.StageSplitNS) + d(s0.StagePinNS, s1.StagePinNS) +
		d(s0.StageBuildNS, s1.StageBuildNS) + d(s0.StageSolveNS, s1.StageSolveNS) +
		d(s0.StageDecodeNS, s1.StageDecodeNS)
	rep.layer("engine.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.layer("engine.evictions_per_op", ratio(d(s0.CacheEvictions, s1.CacheEvictions), ops), "count/op")
	rep.layer("engine.queue_depth_mean", m.queue, "count")
	rep.layer("engine.rejected_frac", ratio(rejected, ops), "ratio")
	rep.layer("engine.stage_sum_over_latency", ratio(stages, d(s0.RequestLatency.SumNS, s1.RequestLatency.SumNS)), "ratio")
	rep.layer("runtime.gc_cpu_frac", m.rt.GCCPUFrac, "ratio")
	rep.layer("runtime.gc_cycles_per_kop", ratio(m.rt.GCCycles*1000, ops), "count/kop")
	if warm {
		rep.layer("gen.lag_p99_ms", percentile(lags, 99), "ms")
		rep.layer("gen.open_p50_ms", openP50, "ms")
		rep.layer("gen.open_p99_ms", openP99, "ms")
	}

	var fillKeys []int
	for _, s := range fill {
		fillKeys = append(fillKeys, int(s.prog))
	}
	rs, err := replayServe(run, fillKeys, m.all, cfg.seconds/5)
	if err != nil {
		return err
	}
	if rs.mismatches > 0 {
		rep.fail("replay: %d of %d replayed responses differ from the served ones", rs.mismatches, 3*rs.replayed)
	}
	rep.notef("replay: %d requests replayed untraced, traced and untraced again, byte-identical to the served responses: %t", rs.replayed, rs.mismatches == 0)
	for _, s := range m.open {
		if !s.warmup {
			rs.tr.add("gen.lag", s.seq, -1, s.target, s.sent)
		}
	}
	addRuntimeSpans(rs.tr, m.start, m.start.Add(m.window))
	rs.report(rep)
	return nil
}

// replayResult is what the replay passes measured.
type replayResult struct {
	replayed   int
	mismatches int
	tr         *tracer
	rp         *replayer
	overhead   float64
}

// replayServe re-serves the measured requests in order: untraced for at
// most budget, traced over the same requests, and untraced once more. Each
// pass first replays the cache fill so its cache state matches the
// engine's, and must reproduce every served response. The tracing overhead
// compares the traced pass with the mean of the two untraced ones.
func replayServe(run *serveRun, fill []int, ops []sample, budget time.Duration) (*replayResult, error) {
	pass := func(tr *tracer, limit int, budget time.Duration) (n, mismatches int, el time.Duration, rp *replayer, err error) {
		if rp, err = newReplayer(); err != nil {
			return 0, 0, 0, nil, err
		}
		for _, k := range fill {
			rp.serve(-1, run.prog(k).body)
		}
		rp.tr, rp.counts = tr, solveCounts{}
		start := time.Now()
		for n < limit && (budget <= 0 || time.Since(start) < budget) {
			s := ops[n]
			if normalizedHash(rp.serve(int64(n), run.prog(int(s.prog)).body)) != s.hash {
				mismatches++
			}
			n++
		}
		return n, mismatches, time.Since(start), rp, nil
	}
	n, mis0, plain0, _, err := pass(nil, len(ops), budget)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	_, mis1, traced, rp, err := pass(tr, n, 0)
	if err != nil {
		return nil, err
	}
	_, mis2, plain1, _, err := pass(nil, n, 0)
	if err != nil {
		return nil, err
	}
	plain := (plain0 + plain1).Seconds() / 2
	return &replayResult{replayed: n, mismatches: mis0 + mis1 + mis2, tr: tr, rp: rp,
		overhead: traced.Seconds()/plain - 1}, nil
}

// report derives the per-layer metrics from the spans and the flow-boundary
// counters, checks the span invariants, and writes the spans out.
func (rs *replayResult) report(rep *report) {
	spans := rs.tr.spans
	agg := aggregate(spans)
	for _, name := range []string{"transport.decode", "transport.encode", "ir.parse", "sched.list",
		"lifetime.from_schedule", "lifetime.split", "netbuild.template", "netbuild.price",
		"flow.solve", "core.prepare", "core.decode", "engine.process"} {
		rep.layer(spanMetric(name), agg[name].meanSelfUS(), "us")
	}
	rs.rp.counts.report(rep)
	rep.layer("replay.unattributed_frac", unattributed(agg, "request"), "ratio")
	rep.layer("replay.tracing_overhead_frac", rs.overhead, "ratio")
	rep.layer("replay.requests", float64(rs.replayed), "count")
	rep.spanCheck(spans)
	rep.spans = spans
}

// spanMetric names the per-layer metric for a span name.
func spanMetric(name string) string {
	if name == "engine.process" {
		return "engine.self_us"
	}
	return name + "_us"
}

// unattributed is the share of the root spans' time that no layer span
// covers: 1 - Σ layer self time / Σ root duration.
func unattributed(agg map[string]layerStat, root string) float64 {
	r := agg[root]
	return ratio(float64(r.Self), float64(r.Total))
}

// addRuntimeSpans records the GC pauses that ended in [from, to] as
// runtime spans.
func addRuntimeSpans(tr *tracer, from, to time.Time) {
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	for i, end := range gc.PauseEnd {
		if i < len(gc.Pause) && !end.Before(from) && !end.After(to) {
			tr.add("runtime.gc_pause", -1, -1, end.Add(-gc.Pause[i]), end)
		}
	}
}
