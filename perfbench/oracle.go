package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/serve/engine"
)

// cyclecancelMaxInstrs bounds the blocks the oracle cross-checks against the
// cycle-cancelling engine: about 0.2 s at 60 instructions, minutes at 400.
const cyclecancelMaxInstrs = 60

// defaultOptions returns the request options every benchmark request
// carries, with the engine's validation defaults applied.
func defaultOptions() (engine.RequestOptions, error) {
	req, err := engine.DecodeRequest(strings.NewReader(`{"program":"task t"}`), 0)
	if err != nil {
		return engine.RequestOptions{}, fmt.Errorf("default options: %w", err)
	}
	return req.Options, nil
}

// lowerOptions maps validated request options onto core options and the
// per-solve cost model, as the serving engine does.
func lowerOptions(o engine.RequestOptions) (core.Options, netbuild.CostOptions) {
	style := netbuild.DensityRegions
	if o.Style == "allcompat" {
		style = netbuild.AllCompatible
	}
	split := lifetime.SplitMinimal
	if o.SplitFull {
		split = lifetime.SplitFull
	}
	model := energy.OnChip256x16().WithMemVoltage(energy.VoltageForDivisor(o.MemDivisor))
	co := netbuild.CostOptions{Style: energy.Static, Model: model}
	if o.Cost == "activity" {
		co = netbuild.CostOptions{Style: energy.Activity, Model: model, H: energy.ConstHamming(energy.DefaultInitialActivity)}
	}
	return core.Options{
		Registers: o.Registers,
		Engine:    o.Engine,
		Memory:    lifetime.MemoryAccess{Period: o.MemDivisor, Offset: o.MemDivisor},
		Split:     split,
		Style:     style,
		Cost:      co,
	}, co
}

// assignments lists each variable's first-segment residence, sorted by
// variable name, in the serving response's format.
func assignments(res *core.Result) []engine.VarAssignment {
	var out []engine.VarAssignment
	seen := make(map[string]bool)
	for i, seg := range res.Build.Segments {
		if seen[seg.Var] {
			continue
		}
		seen[seg.Var] = true
		reg := -1
		if res.InRegister[i] {
			reg = res.RegOf[i]
		}
		out = append(out, engine.VarAssignment{Var: seg.Var, Register: reg})
	}
	return out
}

// refBlock is the reference answer for one block.
type refBlock struct {
	energy, baseline float64
	assign           []engine.VarAssignment
}

// reference is the oracle's answer for one program: either a rejection or
// one refBlock per block in program order.
type reference struct {
	rejected bool
	blocks   []refBlock
	// disputed is set when the cyclecancel engine finds a different optimum
	// than the certified SSP reference; every response for the program then
	// counts as wrong.
	disputed   bool
	crossCheck int // blocks cross-checked against cyclecancel
}

// computeReference runs the cold core pipeline with Options.Debug, which
// re-certifies every solve with internal/check's optimality certificate, and
// cross-checks small blocks against the cycle-cancelling engine.
func computeReference(text string, o engine.RequestOptions) reference {
	prog, err := ir.ParseString(text)
	if err != nil {
		return reference{rejected: true}
	}
	opts, _ := lowerOptions(o)
	opts.Debug = true
	var ref reference
	for _, task := range prog.Tasks {
		for _, b := range task.Blocks {
			sc, err := sched.List(b, sched.Resources{ALUs: o.ALUs, Multipliers: o.Multipliers})
			if err != nil {
				return reference{rejected: true}
			}
			set, err := lifetime.FromSchedule(sc)
			if err != nil {
				return reference{rejected: true}
			}
			res, err := core.Allocate(set, opts)
			if err != nil {
				return reference{rejected: true}
			}
			ref.blocks = append(ref.blocks, refBlock{energy: res.TotalEnergy, baseline: res.BaselineEnergy, assign: assignments(res)})
			if len(b.Instrs) <= cyclecancelMaxInstrs {
				cc := opts
				cc.Debug = false
				cc.Engine = "cyclecancel"
				alt, err := core.Allocate(set, cc)
				ref.crossCheck++
				if err != nil || !sameEnergy(alt.TotalEnergy, res.TotalEnergy) {
					ref.disputed = true
				}
			}
		}
	}
	return ref
}

// sameEnergy reports whether two energies agree within one quantum of the
// fixed-point conversion the flow costs go through.
func sameEnergy(a, b float64) bool {
	d := energy.Quantize(a) - energy.Quantize(b)
	return d >= -1 && d <= 1
}

// errorEnvelope is the transport's JSON error body.
type errorEnvelope struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// verify checks one served response against the reference.
func verify(ref *reference, status int, body []byte) error {
	if ref.disputed {
		return fmt.Errorf("reference disputed by cyclecancel")
	}
	if ref.rejected {
		var e errorEnvelope
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Kind != "bad_request" {
			return fmt.Errorf("reference rejects the program, server answered %d", status)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp engine.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if len(resp.Blocks) != len(ref.blocks) {
		return fmt.Errorf("%d blocks, reference has %d", len(resp.Blocks), len(ref.blocks))
	}
	total := 0.0
	for i, b := range resp.Blocks {
		want := ref.blocks[i]
		switch {
		case !sameEnergy(b.Energy, want.energy):
			return fmt.Errorf("block %s: energy %v, reference %v", b.Block, b.Energy, want.energy)
		case !sameEnergy(b.BaselineEnergy, want.baseline):
			return fmt.Errorf("block %s: baseline %v, reference %v", b.Block, b.BaselineEnergy, want.baseline)
		case !slices.Equal(b.Assignments, want.assign):
			return fmt.Errorf("block %s: assignments differ from the reference", b.Block)
		}
		total += want.energy
	}
	if d := energy.Quantize(resp.TotalEnergy) - energy.Quantize(total); d < -int64(len(ref.blocks)) || d > int64(len(ref.blocks)) {
		return fmt.Errorf("total energy %v, reference %v", resp.TotalEnergy, total)
	}
	return nil
}

// references returns the reference for every listed program, from the
// cache where it has one, computing the rest on `workers` goroutines.
func references(progs map[int]*program, o engine.RequestOptions, workers int, cache *refCache) map[int]*reference {
	out := make(map[int]*reference, len(progs))
	var missing []int
	for k, p := range progs {
		if ref, ok := cache.get(p.text); ok {
			out[k] = ref
		} else {
			missing = append(missing, k)
		}
	}
	var mu sync.Mutex
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				ref := computeReference(progs[k].text, o)
				mu.Lock()
				out[k] = &ref
				cache.put(progs[k].text, &ref)
				mu.Unlock()
			}
		}()
	}
	for _, k := range missing {
		work <- k
	}
	close(work)
	wg.Wait()
	return out
}

// refCache keeps references between runs in one file per benchmark binary,
// so a program that several runs serve is certified once per build. The
// file is named after the hash of the running executable: a rebuilt
// program never reads another build's answers. A nil refCache keeps
// nothing.
type refCache struct {
	path  string
	refs  map[string]cachedRef
	added int
}

// cachedRef is a reference in the cache file's encoding.
type cachedRef struct {
	Rejected, Disputed bool
	CrossCheck         int
	Energy, Baseline   []float64
	Assign             [][]engine.VarAssignment
}

// openRefCache loads the cache for the running executable from dir, or
// starts an empty one when there is none yet or it cannot be read.
func openRefCache(dir string) (*refCache, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	c := &refCache{path: filepath.Join(dir, fmt.Sprintf("refs-%x.gob", h.Sum(nil)[:12])), refs: make(map[string]cachedRef)}
	if data, err := os.ReadFile(c.path); err == nil {
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&c.refs) != nil {
			c.refs = make(map[string]cachedRef)
		}
	}
	return c, nil
}

func refKey(text string) string {
	sum := sha256.Sum256([]byte(text))
	return string(sum[:])
}

func (c *refCache) get(text string) (*reference, bool) {
	if c == nil {
		return nil, false
	}
	cr, ok := c.refs[refKey(text)]
	if !ok {
		return nil, false
	}
	ref := &reference{rejected: cr.Rejected, disputed: cr.Disputed, crossCheck: cr.CrossCheck}
	for i := range cr.Energy {
		ref.blocks = append(ref.blocks, refBlock{energy: cr.Energy[i], baseline: cr.Baseline[i], assign: cr.Assign[i]})
	}
	return ref, true
}

func (c *refCache) put(text string, ref *reference) {
	if c == nil {
		return
	}
	cr := cachedRef{Rejected: ref.rejected, Disputed: ref.disputed, CrossCheck: ref.crossCheck}
	for _, b := range ref.blocks {
		cr.Energy = append(cr.Energy, b.energy)
		cr.Baseline = append(cr.Baseline, b.baseline)
		cr.Assign = append(cr.Assign, b.assign)
	}
	c.refs[refKey(text)] = cr
	c.added++
}

// save writes the cache back when this run added to it, through a
// temporary file so an interrupted run leaves the old file whole.
func (c *refCache) save() error {
	if c == nil || c.added == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.refs); err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// verdicts verifies every distinct (program, response) pair once and
// returns the failing pairs with their reasons.
func verdicts(refs map[int]*reference, store *bodyStore) map[respKey]error {
	bad := make(map[respKey]error)
	for k, sb := range store.bodies {
		if err := verify(refs[int(k.prog)], sb.status, sb.body); err != nil {
			bad[k] = err
		}
	}
	return bad
}
