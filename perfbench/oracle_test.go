package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/serve/engine"
)

func TestOracleCatchesCorruptedEnergy(t *testing.T) {
	progs, err := warmCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	p := progs[1] // the elliptic wave filter: 34 instructions, cross-checked
	o, err := defaultOptions()
	if err != nil {
		t.Fatal(err)
	}
	run, err := newServeRun(&config{workers: 1, seconds: time.Second}, func(int) *program { return p })
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	out := run.senders[0].send(0, p)
	body := run.store.bodies[respKey{out.prog, out.hash}].body
	ref := computeReference(p.text, o)
	if ref.rejected || ref.disputed || ref.crossCheck != 1 {
		t.Fatalf("reference: rejected %t disputed %t cross-checked %d", ref.rejected, ref.disputed, ref.crossCheck)
	}
	if err := verify(&ref, int(out.status), body); err != nil {
		t.Fatalf("served response rejected: %v", err)
	}

	corrupt := func(mut func(*engine.Response)) []byte {
		var c engine.Response
		if err := json.Unmarshal(body, &c); err != nil {
			t.Fatal(err)
		}
		mut(&c)
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"energy two quanta high": corrupt(func(r *engine.Response) { r.Blocks[0].Energy += 2 * energy.Quantum }),
		"baseline":               corrupt(func(r *engine.Response) { r.Blocks[0].BaselineEnergy *= 1.01 }),
		"assignment":             corrupt(func(r *engine.Response) { r.Blocks[0].Assignments[0].Register = 99 }),
		"block dropped":          corrupt(func(r *engine.Response) { r.Blocks = nil }),
	}
	for name, b := range cases {
		if err := verify(&ref, http.StatusOK, b); err == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
	if err := verify(&ref, http.StatusBadRequest, []byte(`{"error":"x","kind":"bad_request"}`)); err == nil {
		t.Error("a rejection of a valid program was accepted")
	}
	// One quantum of rounding is tolerated.
	if err := verify(&ref, http.StatusOK, corrupt(func(r *engine.Response) { r.Blocks[0].Energy += 0.4 * energy.Quantum })); err != nil {
		t.Errorf("sub-quantum difference rejected: %v", err)
	}
}

func TestOracleAgreesOnRejection(t *testing.T) {
	// i2 is never read: the engine rejects the block, and so must the
	// reference.
	text := "task t\nblock b\nin i0 i1 i2\nt0 = i0 + i1\nout t0\nend\n"
	body, err := json.Marshal(engine.Request{Program: text})
	if err != nil {
		t.Fatal(err)
	}
	p := &program{name: "unread", text: text, body: body}
	o, err := defaultOptions()
	if err != nil {
		t.Fatal(err)
	}
	ref := computeReference(text, o)
	if !ref.rejected {
		t.Fatal("reference accepted a program with an unread input")
	}
	run, err := newServeRun(&config{workers: 1, seconds: time.Second}, func(int) *program { return p })
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	out := run.senders[0].send(0, p)
	sb := run.store.bodies[respKey{out.prog, out.hash}]
	if err := verify(&ref, sb.status, sb.body); err != nil {
		t.Fatalf("served rejection not accepted: %v", err)
	}
	if err := verify(&ref, http.StatusOK, []byte(`{"blocks":[],"total_energy":0}`)); err == nil {
		t.Fatal("an answer to a program the reference rejects was accepted")
	}
	rp, err := newReplayer()
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.serve(0, body); !bytes.Equal(normalize(got), normalize(sb.body)) {
		t.Fatalf("replayed rejection %s differs from served %s", got, sb.body)
	}
}

// A saved reference reads back unchanged in a later run of the same
// binary, and an empty cache directory yields no answers.
func TestRefCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := openRefCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("task t"); ok {
		t.Fatal("empty cache returned a reference")
	}
	want := reference{crossCheck: 1, blocks: []refBlock{{energy: 1.25, baseline: 3.5,
		assign: []engine.VarAssignment{{Var: "a", Register: 0}, {Var: "b", Register: -1}}}}}
	c.put("task t", &want)
	c.put("task u", &reference{rejected: true})
	if err := c.save(); err != nil {
		t.Fatal(err)
	}
	again, err := openRefCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := again.get("task t")
	if !ok || got.crossCheck != 1 || len(got.blocks) != 1 || got.blocks[0].energy != 1.25 ||
		got.blocks[0].baseline != 3.5 || len(got.blocks[0].assign) != 2 || got.blocks[0].assign[1] != want.blocks[0].assign[1] {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	if rej, ok := again.get("task u"); !ok || !rej.rejected {
		t.Fatal("rejection not kept")
	}
}
