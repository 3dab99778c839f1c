package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// dseSetupReps is how many times dse_sweep times its set-up, which takes a
// few tens of milliseconds.
const dseSetupReps = 21

// dseBlock is one fixed block of the design-space sweep.
type dseBlock struct {
	name string
	set  *lifetime.Set
}

// dseBlocks returns the RSP kernel and the EWF and FDCT8 benchmarks, the
// HLS kernels list-scheduled as leasweep schedules them (2 ALUs, 1
// multiplier).
func dseBlocks() ([]dseBlock, error) {
	rsp, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		return nil, err
	}
	out := []dseBlock{{"rsp", rsp}}
	for _, name := range []string{"ewf", "fdct8"} {
		b, err := workload.HLSBenchmarks()[name]()
		if err != nil {
			return nil, err
		}
		sc, err := sched.List(b, sched.Resources{ALUs: 2, Multipliers: 1})
		if err != nil {
			return nil, err
		}
		set, err := lifetime.FromSchedule(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, dseBlock{name, set})
	}
	return out, nil
}

// dseOptions is the grid: registers 1..32 × divisors {1,2,4}, static plus
// activity costs under the synthetic-trace Hamming model.
func dseOptions() sweep.Options {
	regs := make([]int, 32)
	for i := range regs {
		regs[i] = i + 1
	}
	return sweep.Options{Registers: regs, Divisors: []int{1, 2, 4}, H: trace.Hamming()}
}

// columnOptions are the core options sweep.NewRunner prepares a divisor
// column with, and the column's static and activity cost models.
func columnOptions(opt sweep.Options, div int) (core.Options, netbuild.CostOptions, netbuild.CostOptions) {
	model := energy.OnChip256x16().WithMemVoltage(energy.VoltageForDivisor(div))
	static := netbuild.CostOptions{Style: energy.Static, Model: model}
	activity := netbuild.CostOptions{Style: energy.Activity, Model: model, H: opt.H}
	return core.Options{
		Memory: lifetime.MemoryAccess{Period: div, Offset: div},
		Split:  opt.Split,
		Style:  netbuild.DensityRegions,
		Cost:   static,
	}, static, activity
}

// gridCSV renders a grid in leasweep's CSV form, the bytes replays and
// references are compared on.
func gridCSV(g *sweep.Grid) []byte {
	var buf bytes.Buffer
	_ = g.WriteCSV(&buf) // writing to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// wrongCells counts the cells of got that disagree with the cold-start
// reference: feasibility, either energy beyond one quantum, or any access,
// location or register count.
func wrongCells(got, want *sweep.Grid) int {
	if len(got.Points) != len(want.Points) {
		return len(want.Points)
	}
	bad := 0
	for i, p := range got.Points {
		w := want.Points[i]
		if p.Registers != w.Registers || p.Divisor != w.Divisor || p.Feasible != w.Feasible ||
			!sameEnergy(p.StaticEnergy, w.StaticEnergy) || !sameEnergy(p.ActivityEnergy, w.ActivityEnergy) ||
			p.MemAccesses != w.MemAccesses || p.RegAccesses != w.RegAccesses ||
			p.Locations != w.Locations || p.RegistersUsed != w.RegistersUsed {
			bad++
		}
	}
	return bad
}

// runDSE runs dse_sweep: persistent sweep.Runners, swept sequentially in
// rounds that visit every block once (in a seeded order), until the run
// length has passed and the round is complete.
func runDSE(cfg *config, rep *report) error {
	blocks, err := dseBlocks()
	if err != nil {
		return err
	}
	opt := dseOptions()
	cells := len(opt.Registers) * len(opt.Divisors)
	// One untimed set-up first, then dseSetupReps timed ones, each from a
	// collected heap; setup_s is their median.
	var runners []*sweep.Runner
	var setups []float64
	for i := 0; i <= dseSetupReps; i++ {
		runners = nil
		runtime.GC()
		t0 := time.Now()
		for _, b := range blocks {
			rn, err := sweep.NewRunner(b.set, opt)
			if err != nil {
				return fmt.Errorf("dse: %s: %w", b.name, err)
			}
			runners = append(runners, rn)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	rep.metric("setup_s", median(setups), "s")

	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(blocks))
	type served struct {
		block int
		grid  *sweep.Grid
	}
	var runs []served
	sweeps := make([][]float64, len(blocks)) // each block's sweep times, ms
	var rounds [][]float64                   // each round's sweep times, ms
	var allocs []float64                     // each round's heap bytes per cell
	rt0, t0 := readRuntime(), time.Now()
	for time.Since(t0) < cfg.seconds {
		var round []float64
		a0 := readRuntime().allocBytes
		for _, b := range order {
			s := time.Now()
			g, err := runners[b].Run()
			ms := float64(time.Since(s)) / 1e6
			if err != nil {
				return fmt.Errorf("dse: %s: %w", blocks[b].name, err)
			}
			sweeps[b] = append(sweeps[b], ms)
			round = append(round, ms)
			runs = append(runs, served{b, g})
		}
		rounds = append(rounds, round)
		allocs = append(allocs, float64(readRuntime().allocBytes-a0)/float64(len(blocks)*cells))
	}
	elapsed := time.Since(t0)
	rt := rt0.to(readRuntime())
	peak := peakRSSMB()
	done := len(runs) * cells
	// A round sweeps every block once. Throughput is one round's cells over
	// the sum of each block's median sweep time; p50 and p99 are the medians
	// over rounds of a round's middle and slowest sweep. A stall then moves
	// one sweep's time, not the reported figures.
	var roundMS float64
	var mids, tails []float64
	for _, s := range sweeps {
		roundMS += median(s)
	}
	for _, r := range rounds {
		sorted := sortedCopy(r)
		mids = append(mids, percentile(sorted, 50))
		tails = append(tails, percentile(sorted, 99))
	}
	rep.metric("throughput_ops_s", float64(len(blocks)*cells)/(roundMS/1e3), "ops/s")
	rep.metric("latency_p50_ms", median(mids), "ms")
	rep.metric("latency_p99_ms", median(tails), "ms")
	rep.notef("latency samples: %d whole-grid sweeps (%d cells each) in %d rounds; p99 is a round's slowest sweep", len(runs), cells, len(rounds))
	for i, b := range blocks {
		rep.notef("sweep %s: median %.1f ms over %d sweeps", b.name, median(sweeps[i]), len(sweeps[i]))
	}

	// Oracle: the cold-start sweep for each block, and each column's
	// all-memory baseline for the energy ratio.
	refs := make([]*sweep.Grid, len(blocks))
	baselines := make([]map[int]float64, len(blocks))
	var wg sync.WaitGroup
	errs := make([]error, len(blocks))
	sem := make(chan struct{}, cfg.workers)
	for i, b := range blocks {
		wg.Add(1)
		go func(i int, b dseBlock) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cold := opt
			cold.ColdStart = true
			if refs[i], errs[i] = sweep.Run(b.set, cold); errs[i] != nil {
				return
			}
			baselines[i] = make(map[int]float64)
			for _, div := range opt.Divisors {
				copts, static, _ := columnOptions(opt, div)
				pre, err := core.Prepare(b.set, copts)
				if err != nil {
					continue // unsplittable column: all cells infeasible
				}
				_, base, err := pre.Template().CostVector(static)
				if err != nil {
					errs[i] = err
					return
				}
				baselines[i][div] = base
			}
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("dse oracle: %w", err)
		}
	}
	failed := 0
	for _, r := range runs {
		if n := wrongCells(r.grid, refs[r.block]); n > 0 {
			failed += n
			rep.failure(fmt.Sprintf("%s: %d cells differ from the cold-start sweep", blocks[r.block].name, n))
		}
	}
	rep.attempted, rep.failed = int64(done), int64(failed)
	rep.notef("oracle: every sweep compared cell by cell to the cold-start sweep; error_frac = %.6f ratio (%d wrong of %d cells)",
		ratio(float64(failed), float64(done)), failed, done)

	var e, base float64
	feasible := 0
	for i, g := range refs {
		for _, p := range g.Points {
			if p.Feasible {
				feasible++
				e += p.StaticEnergy
				base += baselines[i][p.Divisor]
			}
		}
	}
	rep.metric("energy_ratio", ratio(e, base), "ratio")
	rep.metric("peak_rss_mb", peak, "MB")
	// Per round, so the number of rounds a run fits does not weigh in.
	rep.metric("alloc_bytes_per_op", median(allocs), "B/op")
	rep.notef("heap bytes per cell by round: %.0f", allocs)
	if !cfg.trace {
		return nil
	}

	rep.layer("sweep.feasible_frac", ratio(float64(feasible), float64(len(refs)*cells)), "ratio")
	rep.layer("runtime.gc_cpu_frac", rt.GCCPUFrac, "ratio")
	rep.layer("runtime.gc_cycles_per_kop", ratio(rt.GCCycles*1000, float64(done)), "count/kop")
	// The first round's sweeps ran on fresh Runners, the state each replay
	// starts from, so every replayed grid must equal the served one. The
	// tracing overhead compares an untraced replay pass with a traced one.
	var rp *sweepReplayer
	var plain, traced time.Duration
	for _, tr := range []*tracer{nil, newTracer()} {
		rp = &sweepReplayer{tr: tr}
		for _, r := range runs[:len(blocks)] {
			b := blocks[r.block]
			g, el, err := rp.sweep(int64(r.block), b.set, opt)
			if err != nil {
				return err
			}
			if !bytes.Equal(gridCSV(g), gridCSV(r.grid)) {
				rep.fail("replay: %s grid differs from the served sweep", b.name)
			}
			if tr == nil {
				plain += el
			} else {
				traced += el
			}
		}
	}
	rep.notef("replay: %d blocks swept untraced and traced, grids byte-identical to the served sweeps: %t", len(blocks), len(rep.problems) == 0)
	addRuntimeSpans(rp.tr, t0, t0.Add(elapsed))
	spans := rp.tr.spans
	agg := aggregate(spans)
	for _, name := range []string{"lifetime.split", "netbuild.template", "netbuild.price", "flow.solve", "core.prepare", "core.decode"} {
		rep.layer(spanMetric(name), agg[name].meanSelfUS(), "us")
	}
	rep.layer("sweep.self_us", agg["sweep.run"].meanSelfUS(), "us")
	rp.counts.report(rep)
	rep.layer("replay.unattributed_frac", unattributed(agg, "sweep.run"), "ratio")
	rep.layer("replay.tracing_overhead_frac", traced.Seconds()/plain.Seconds()-1, "ratio")
	rep.layer("replay.requests", float64(len(blocks)), "count")
	rep.spanCheck(spans)
	rep.spans = spans
	return nil
}

// sweepReplayer replays sweep.Runner's work through core, netbuild and flow:
// per divisor column one core.Prepare and two priced cost vectors (set-up),
// then per cell a warm flow solve and a core decode, in the Runner's order.
type sweepReplayer struct {
	tr     *tracer
	counts solveCounts
}

// sweep replays one block's grid and returns it with the time the sweep
// proper (set-up excluded) took.
func (r *sweepReplayer) sweep(rid int64, set *lifetime.Set, opt sweep.Options) (*sweep.Grid, time.Duration, error) {
	eng, err := flow.EngineByName(core.DefaultEngine())
	if err != nil {
		return nil, 0, err
	}
	tr := r.tr
	nd := len(opt.Divisors)
	type column struct {
		pre              *core.Prepared
		scratch          *flow.Scratch
		static, activity netbuild.CostOptions
		sCosts, aCosts   []int64
		sBase, aBase     float64
	}
	cols := make([]column, nd)
	for _, div := range opt.Divisors {
		copts, _, _ := columnOptions(opt, div)
		probe(tr, rid, set, copts)
	}
	setup := tr.begin("sweep.setup", rid, -1)
	for di, div := range opt.Divisors {
		copts, static, activity := columnOptions(opt, div)
		c := &cols[di]
		c.static, c.activity = static, activity
		s := tr.begin("core.prepare", rid, setup)
		pre, err := core.Prepare(set, copts)
		tr.end(s)
		if err != nil {
			continue
		}
		s = tr.begin("netbuild.price", rid, setup)
		sc, sb, err1 := pre.Template().CostVector(static)
		ac, ab, err2 := pre.Template().CostVector(activity)
		tr.end(s)
		if err1 != nil || err2 != nil {
			continue
		}
		c.pre, c.scratch = pre, flow.NewScratch()
		c.sCosts, c.sBase, c.aCosts, c.aBase = sc, sb, ac, ab
		r.counts.block(pre.Template().Build)
	}
	tr.end(setup)

	start := time.Now()
	root := tr.begin("sweep.run", rid, -1)
	g := &sweep.Grid{Points: make([]sweep.Point, len(opt.Registers)*nd)}
	var sol flow.Solution
	var sst flow.SolveStats
	solve := func(c *column, regs int, costs []int64, co netbuild.CostOptions, base float64) *core.Result {
		b := c.pre.Template().Build
		s := tr.begin("flow.solve", rid, root)
		err := b.Net.MinCostFlowValueWithCostsInto(eng, costs, c.scratch, b.S, b.T, int64(regs), &sol, &sst)
		tr.end(s)
		if err != nil {
			return nil
		}
		r.counts.solve(&sst)
		s = tr.begin("core.decode", rid, root)
		res, err := c.pre.DecodeSolution(regs, co, base, &sol, &sst)
		tr.end(s)
		if err != nil {
			return nil
		}
		return res
	}
	for di := range cols {
		c := &cols[di]
		div := opt.Divisors[di]
		voltage := energy.VoltageForDivisor(div)
		for ri, regs := range opt.Registers {
			g.Points[ri*nd+di] = sweep.Point{Registers: regs, Divisor: div, Voltage: voltage}
		}
		if c.pre == nil {
			continue
		}
		for ri, regs := range opt.Registers {
			pt := &g.Points[ri*nd+di]
			rs := solve(c, regs, c.sCosts, c.static, c.sBase)
			if rs == nil {
				continue
			}
			pt.Feasible = true
			pt.StaticEnergy = rs.TotalEnergy
			pt.MemAccesses = rs.Counts.Mem()
			pt.RegAccesses = rs.Counts.Reg()
			pt.Locations = rs.MemoryLocations
			pt.RegistersUsed = rs.RegistersUsed
		}
		for ri := range opt.Registers {
			pt := &g.Points[ri*nd+di]
			if !pt.Feasible {
				continue
			}
			if ra := solve(c, pt.Registers, c.aCosts, c.activity, c.aBase); ra != nil {
				pt.ActivityEnergy = ra.TotalEnergy
			}
		}
	}
	tr.end(root)
	return g, time.Since(start), nil
}
