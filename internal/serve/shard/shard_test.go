package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/serve/engine"
	"repro/internal/workload"
)

// TestRingDeterministicAndBalanced pins the ring contract the load driver
// depends on: identical construction yields identical routing, every shard
// owns a fair share of random keys, and single-shard rings route everything
// to shard 0.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := NewRing(4, 0), NewRing(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%d-%d", i, i*i)
		sa, sb := a.Lookup(key), b.Lookup(key)
		if sa != sb {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, sa, sb)
		}
		counts[sa]++
	}
	for s, n := range counts {
		if n < 4000/4/2 || n > 4000/4*2 {
			t.Errorf("shard %d owns %d of 4000 keys; split too skewed: %v", s, n, counts)
		}
	}
	one := NewRing(1, 0)
	if got := one.Lookup("anything"); got != 0 {
		t.Errorf("1-shard ring routed to %d", got)
	}
	if NewRing(0, 0).Shards() != 1 {
		t.Error("shard count not clamped to 1")
	}
}

// TestRouteKeyAffinity pins the routing-key contract: register and cost
// sweeps over one program share a key (so they share a shard's warm
// templates), while program or shape-option changes split.
func TestRouteKeyAffinity(t *testing.T) {
	base := func() *engine.Request {
		return &engine.Request{
			Program: "task t\nblock b\nin a b\nc = a + b\nout c\nend\n",
			Options: engine.RequestOptions{Registers: 4},
		}
	}
	k := engine.RouteKey(base())
	same := base()
	same.Options.Registers = 9
	same.Options.Cost = "activity"
	if engine.RouteKey(same) != k {
		t.Error("register/cost sweep changed the route key")
	}
	// Raw and validated forms of the default options must agree, since the
	// client routes before validation and the server after.
	validated := base()
	validated.Options.MemDivisor = 1
	validated.Options.ALUs, validated.Options.Multipliers = 2, 1
	if engine.RouteKey(validated) != k {
		t.Error("default normalisation changed the route key")
	}
	diff := base()
	diff.Options.MemDivisor = 4
	if engine.RouteKey(diff) == k {
		t.Error("divisor change kept the route key")
	}
	diff = base()
	diff.Program += "\n"
	if engine.RouteKey(diff) == k {
		t.Error("program change kept the route key")
	}
}

// shardCorpus renders a mixed random/hlsbench program corpus with a register
// sweep, so concurrent load produces both repeated and distinct template
// shapes.
func shardCorpus(t *testing.T) []*engine.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	classes, err := workload.Programs(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*engine.Request
	i := 0
	for _, class := range []string{"random", "hlsbench"} {
		for _, p := range classes[class] {
			var buf bytes.Buffer
			if err := ir.Format(&buf, p); err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &engine.Request{
				Program: buf.String(),
				Options: engine.RequestOptions{Registers: 3 + i%3},
			})
			i++
		}
	}
	if len(reqs) < 6 {
		t.Fatalf("corpus too small: %d requests", len(reqs))
	}
	return reqs
}

// TestShardedByteIdentical is the serving stack's equivalence proof: a
// 4-shard router with one worker per shard serves a concurrent mixed corpus,
// and every response is identical (energies, assignments, register counts —
// everything but cache/timing metadata) to the same request solved alone on
// a fresh engine, the sequential cold path. Repeats make most of the
// sharded solves warm cache hits.
func TestShardedByteIdentical(t *testing.T) {
	reqs := shardCorpus(t)

	ref := make([]*engine.Response, len(reqs))
	for i, r := range reqs {
		e := engine.New(engine.Config{Workers: 1, QueueDepth: 4})
		resp, err := e.Allocate(context.Background(), cloneRequest(r))
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		ref[i] = stripVolatile(resp)
		if err := e.Close(context.Background()); err != nil {
			t.Fatalf("reference close: %v", err)
		}
	}

	const shards = 4
	const repeats = 6
	router := New(Config{
		Shards: shards,
		Engine: engine.Config{Workers: 1, QueueDepth: repeats * len(reqs)},
	})
	defer router.Close(context.Background())

	var wg sync.WaitGroup
	errs := make(chan error, repeats*len(reqs))
	for n := 0; n < repeats; n++ {
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := router.Allocate(context.Background(), cloneRequest(reqs[i]))
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
					return
				}
				if got := stripVolatile(resp); !reflect.DeepEqual(got, ref[i]) {
					errs <- fmt.Errorf("request %d: sharded response differs from sequential solve:\n got %+v\nwant %+v", i, got, ref[i])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := router.Snapshot()
	if want := int64(repeats * len(reqs)); snap.Requests != want {
		t.Errorf("requests %d, want %d", snap.Requests, want)
	}
	if snap.CacheHits == 0 {
		t.Error("no cache hits: the warm path was never compared")
	}
}

// cloneRequest copies a request so the engine's in-place option defaulting
// never races between concurrent sends of the same corpus entry.
func cloneRequest(r *engine.Request) *engine.Request {
	c := *r
	return &c
}

// stripVolatile zeroes cache and timing/solver metadata (which legitimately
// differ between cold and warm paths), keeping every decoded
// allocation field — energies, assignments, register and memory counts — for
// exact comparison.
func stripVolatile(resp *engine.Response) *engine.Response {
	out := &engine.Response{TotalEnergy: resp.TotalEnergy}
	for _, b := range resp.Blocks {
		b.CacheHit = false
		b.Stats = core.RunStats{}
		out.Blocks = append(out.Blocks, b)
	}
	return out
}
