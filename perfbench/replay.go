package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/serve/engine"
)

// replayCacheEntries matches the serving engine's default template cache.
const replayCacheEntries = 128

// replayEntry is one prepared block shape with its own solver state, as a
// serving-engine cache entry holds it.
type replayEntry struct {
	key     string
	pre     *core.Prepared
	scratch *flow.Scratch
	costs   []int64
	sol     flow.Solution
	sst     flow.SolveStats
}

// replayer re-serves recorded requests by calling each layer's public
// functions in the order the serving engine calls them, with a span around
// every call. Its response bytes must equal the served ones (wall-clock
// fields aside), which pins the spans to the same computation.
type replayer struct {
	tr    *tracer
	eng   flow.Engine
	lru   *list.List
	index map[string]*list.Element
	// pending holds the cache misses of the current request, probed after
	// its root span closes.
	pending []*lifetime.Set
	counts  solveCounts
}

// solveCounts gathers work counters at the flow boundary: per solve from
// flow.SolveStats, per block from the network it solved.
type solveCounts struct {
	solves, incremental, bucketPhases, phases int64
	augmentations, dijkstraIters              int64
	blocks, arcs, nodes                       int64
}

func (c *solveCounts) solve(st *flow.SolveStats) {
	c.solves++
	if st.Incremental {
		c.incremental++
	}
	c.bucketPhases += int64(st.BucketPhases)
	c.phases += int64(st.Phases)
	c.augmentations += int64(st.Augmentations)
	c.dijkstraIters += int64(st.DijkstraIters)
}

func (c *solveCounts) block(b *netbuild.Build) {
	c.blocks++
	c.arcs += int64(b.Net.M())
	c.nodes += int64(b.Net.N())
}

// report emits the flow and network-size metrics.
func (c *solveCounts) report(rep *report) {
	solves, blocks := float64(c.solves), float64(c.blocks)
	rep.layer("netbuild.arcs_per_block", ratio(float64(c.arcs), blocks), "count")
	rep.layer("netbuild.nodes_per_block", ratio(float64(c.nodes), blocks), "count")
	rep.layer("flow.augmentations_per_solve", ratio(float64(c.augmentations), solves), "count")
	rep.layer("flow.dijkstra_iters_per_solve", ratio(float64(c.dijkstraIters), solves), "count")
	rep.layer("flow.bucket_phase_frac", ratio(float64(c.bucketPhases), float64(c.phases)), "ratio")
	rep.layer("flow.incremental_frac", ratio(float64(c.incremental), solves), "ratio")
}

func newReplayer() (*replayer, error) {
	eng, err := flow.EngineByName(core.DefaultEngine())
	if err != nil {
		return nil, err
	}
	return &replayer{eng: eng, lru: list.New(), index: make(map[string]*list.Element)}, nil
}

// serve replays one request body and returns the bytes the transport would
// have written.
func (r *replayer) serve(rid int64, body []byte) []byte {
	tr := r.tr
	root := tr.begin("request", rid, -1)
	s := tr.begin("transport.decode", rid, root)
	req, err := engine.DecodeRequest(bytes.NewReader(body), engine.DefaultMaxProgramBytes)
	tr.end(s)
	var resp any
	if err != nil {
		resp = errorEnvelope{Error: err.Error(), Kind: "bad_request"}
	} else {
		s = tr.begin("engine.process", rid, root)
		out, err := r.process(rid, s, req)
		tr.end(s)
		if err != nil {
			resp = errorEnvelope{Error: err.Error(), Kind: "bad_request"}
		} else {
			resp = out
		}
	}
	s = tr.begin("transport.encode", rid, root)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(resp) // encoding these types cannot fail
	tr.end(s)
	tr.end(root)
	for _, set := range r.pending {
		opts, _ := lowerOptions(req.Options)
		probe(tr, rid, set, opts)
	}
	r.pending = r.pending[:0]
	return buf.Bytes()
}

func badRequest(field, reason string, err error) error {
	return &engine.RequestError{Field: field, Reason: reason, Err: err}
}

// process mirrors the engine's per-request work: parse, then per block
// schedule, lifetimes, template cache, price, solve and decode.
func (r *replayer) process(rid int64, parent int, req *engine.Request) (*engine.Response, error) {
	tr := r.tr
	s := tr.begin("ir.parse", rid, parent)
	prog, err := ir.ParseString(req.Program)
	tr.end(s)
	if err != nil {
		return nil, badRequest("program", "TAC parse failed", err)
	}
	opts, co := lowerOptions(req.Options)
	resp := &engine.Response{}
	for _, task := range prog.Tasks {
		for _, block := range task.Blocks {
			br, err := r.block(rid, parent, task.Name, block, req.Options, opts, co)
			if err != nil {
				return nil, err
			}
			resp.Blocks = append(resp.Blocks, *br)
			resp.TotalEnergy += br.Energy
		}
	}
	return resp, nil
}

func (r *replayer) block(rid int64, parent int, taskName string, block *ir.Block, o engine.RequestOptions, opts core.Options, co netbuild.CostOptions) (*engine.BlockResult, error) {
	tr := r.tr
	s := tr.begin("sched.list", rid, parent)
	sc, err := sched.List(block, sched.Resources{ALUs: o.ALUs, Multipliers: o.Multipliers})
	tr.end(s)
	if err != nil {
		return nil, badRequest("program", fmt.Sprintf("block %q does not schedule", block.Name), err)
	}
	s = tr.begin("lifetime.from_schedule", rid, parent)
	set, err := lifetime.FromSchedule(sc)
	tr.end(s)
	if err != nil {
		return nil, badRequest("program", fmt.Sprintf("block %q has no valid lifetimes", block.Name), err)
	}

	e := r.lookup(shapeKey(set, o))
	hit := e.pre != nil
	if !hit {
		r.pending = append(r.pending, set)
		s = tr.begin("core.prepare", rid, parent)
		pre, err := core.Prepare(set, opts)
		tr.end(s)
		if err != nil {
			return nil, badRequest("program", fmt.Sprintf("block %q does not prepare", block.Name), err)
		}
		e.pre, e.scratch = pre, flow.NewScratch()
	}

	tpl := e.pre.Template()
	s = tr.begin("netbuild.price", rid, parent)
	var baseline float64
	e.costs, baseline, err = tpl.CostVectorInto(e.costs, co)
	tr.end(s)
	if err != nil {
		return nil, badRequest("options.registers", fmt.Sprintf("block %q does not allocate", block.Name), err)
	}
	b := tpl.Build
	s = tr.begin("flow.solve", rid, parent)
	err = b.Net.MinCostFlowValueWithCostsInto(r.eng, e.costs, e.scratch, b.S, b.T, int64(o.Registers), &e.sol, &e.sst)
	tr.end(s)
	if err != nil {
		return nil, badRequest("options.registers", fmt.Sprintf("block %q does not allocate", block.Name), err)
	}
	r.counts.solve(&e.sst)
	r.counts.block(b)
	s = tr.begin("core.decode", rid, parent)
	res, err := e.pre.DecodeSolution(o.Registers, co, baseline, &e.sol, &e.sst)
	tr.end(s)
	if err != nil {
		return nil, badRequest("options.registers", fmt.Sprintf("block %q does not allocate", block.Name), err)
	}
	return &engine.BlockResult{
		Task:            taskName,
		Block:           block.Name,
		Registers:       o.Registers,
		RegistersUsed:   res.RegistersUsed,
		MemoryLocations: res.MemoryLocations,
		Energy:          res.TotalEnergy,
		BaselineEnergy:  res.BaselineEnergy,
		Assignments:     assignments(res),
		CacheHit:        hit,
		Stats:           res.Stats,
	}, nil
}

// probe times the two largest stages inside core.Prepare — lifetime
// splitting and template construction — by calling them directly on the
// same inputs. core.Prepare offers no seam between them, so the probe runs
// them a second time, outside any request, under its own root.
func probe(tr *tracer, rid int64, set *lifetime.Set, opts core.Options) {
	root := tr.begin("probe", rid, -1)
	s := tr.begin("lifetime.split", rid, root)
	grouped, err := set.SplitCuts(opts.Memory, opts.Split, opts.ExtraCuts)
	tr.end(s)
	if err == nil {
		s = tr.begin("netbuild.template", rid, root)
		_, _ = netbuild.NewTemplate(set, grouped, opts.Style, opts.Cost) // timing only; core.Prepare reports failures
		tr.end(s)
	}
	tr.end(root)
}

// lookup returns the cache entry for key, creating an empty one — after
// evicting the least recently used entry when full — on a miss. Like the
// engine's cache, an entry whose preparation failed stays, unprepared.
func (r *replayer) lookup(key string) *replayEntry {
	if el, ok := r.index[key]; ok {
		r.lru.MoveToFront(el)
		return el.Value.(*replayEntry)
	}
	if r.lru.Len() >= replayCacheEntries {
		old := r.lru.Back()
		r.lru.Remove(old)
		delete(r.index, old.Value.(*replayEntry).key)
	}
	e := &replayEntry{key: key}
	r.index[key] = r.lru.PushFront(e)
	return e
}

// shapeKey identifies everything that fixes a block's prepared topology:
// the shape-relevant options and the exact lifetime set.
func shapeKey(set *lifetime.Set, o engine.RequestOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%t|%s|%s|%d", o.MemDivisor, o.SplitFull, o.Style, strings.ToLower(o.Engine), set.Steps)
	for i := range set.Lifetimes {
		l := &set.Lifetimes[i]
		b.WriteByte('|')
		b.WriteString(l.Var)
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(l.Write))
		if l.Input {
			b.WriteString(";in")
		}
		if l.External {
			b.WriteString(";ext")
		}
		for _, rd := range l.Reads {
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(rd))
		}
	}
	return b.String()
}
