package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/serve/engine"
	"repro/internal/workload"
)

// program is one corpus entry: its TAC text and the request body that
// carries it with default options.
type program struct {
	name string
	text string
	body []byte
}

// Corpus shape. serve_warm draws zipfian keys over warmRandom random
// programs plus the six fixed kernels; the whole corpus fits the engine's
// 128-entry template cache. compile_cold streams never-repeated programs.
const (
	warmRandom   = 94
	warmMinInstr = 12
	warmMaxInstr = 40
	coldMinInstr = 50
	coldMaxInstr = 200
	zipfTheta    = 0.99
	// warmCorpusSeed fixes the serve_warm programs: like a deployed service,
	// the warm workload serves one stable program set, and the run's seed
	// drives which of them are requested when. A seeded corpus made p50
	// latency differ by 20% between seeds through program content alone.
	warmCorpusSeed = 1
	// compile_cold serves never-repeated programs of one fixed corpus of
	// coldCorpus programs (a power of two, so every odd stride visits them
	// all) in a seeded order; past coldCorpus requests it serves fresh ones.
	// The oracle's answers for the corpus then carry over between runs of
	// one build (see refCache).
	coldCorpusSeed = 1
	coldCorpus     = 4096
)

// golden is the golden-ratio conjugate: its multiples mod 1 are a
// low-discrepancy sequence, so the size schedules below cover their range
// evenly, which keeps run-to-run spread low.
const golden = 0.6180339887498949

func newProgram(name string, p *ir.Program) (*program, error) {
	var buf bytes.Buffer
	if err := ir.Format(&buf, p); err != nil {
		return nil, fmt.Errorf("corpus: format %s: %w", name, err)
	}
	body, err := json.Marshal(engine.Request{Program: buf.String()})
	if err != nil {
		return nil, fmt.Errorf("corpus: encode %s: %w", name, err)
	}
	return &program{name: name, text: buf.String(), body: body}, nil
}

// warmCorpus builds the serve_warm key space: key k is the k-th most
// popular program under the zipfian. The six kernels (three HLS benchmarks,
// three figure programs) hold the six hottest ranks, about 45% of the
// traffic, so the seed does not decide how heavy the hot set is; every
// other rank is a seeded RandomProgram whose size follows the golden-ratio
// schedule. Programs the engine rejects (RandomProgram can leave a block
// input unread) stay in the mix on purpose.
func warmCorpus(seed int64) ([]*program, error) {
	kernels, err := workload.Programs(rand.New(rand.NewSource(seed)), 1, warmMinInstr)
	if err != nil {
		return nil, err
	}
	var fixed []*ir.Program
	for _, class := range []string{"hlsbench", "figures"} {
		fixed = append(fixed, kernels[class]...)
	}
	n := warmRandom + len(fixed)
	rng := rand.New(rand.NewSource(seed))
	out := make([]*program, 0, n)
	for _, p := range fixed {
		pr, err := newProgram(p.Tasks[0].Name, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	for k := len(fixed); k < n; k++ {
		size := warmMinInstr + int(math.Mod(float64(k)*golden, 1)*float64(warmMaxInstr-warmMinInstr+1))
		p, err := workload.RandomProgram(rng, size)
		if err != nil {
			return nil, fmt.Errorf("corpus: random program %d: %w", k, err)
		}
		p.Tasks[0].Name = fmt.Sprintf("warm%03d", k)
		pr, err := newProgram(p.Tasks[0].Name, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// coldProgram is program i of the compile_cold corpus: a RandomProgram of
// a log-uniform size in [coldMinInstr, coldMaxInstr], seeded per index so
// the program does not depend on which client claims it. The task name
// carries the index, so no two programs repeat.
func coldProgram(i int) (*program, error) {
	u := math.Mod(float64(i)*golden, 1)
	size := int(math.Round(coldMinInstr * math.Pow(float64(coldMaxInstr)/coldMinInstr, u)))
	rng := rand.New(rand.NewSource(coldCorpusSeed*1_000_003 + int64(i)))
	p, err := workload.RandomProgram(rng, size)
	if err != nil {
		return nil, fmt.Errorf("corpus: cold program %d: %w", i, err)
	}
	p.Tasks[0].Name = fmt.Sprintf("cold%06d", i)
	return newProgram(p.Tasks[0].Name, p)
}

// coldOrder is the order a compile_cold run serves the corpus in: a seeded
// odd stride through the first coldCorpus programs from a seeded offset,
// which visits each once, then the programs beyond them in turn.
type coldOrder struct{ offset, stride int }

func newColdOrder(seed int64) coldOrder {
	rng := rand.New(rand.NewSource(seed))
	return coldOrder{offset: rng.Intn(coldCorpus), stride: 2*rng.Intn(coldCorpus/2) + 1}
}

// index is the corpus index of the k-th program served.
func (c coldOrder) index(k int) int {
	if k >= coldCorpus {
		return k
	}
	return (c.offset + k*c.stride) % coldCorpus
}
