package main

import (
	"bytes"
	"context"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload/generator"
)

// respWriter is a minimal in-process http.ResponseWriter: the benchmark
// serves requests through transport.NewMux without sockets.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// timingKey is the JSON key suffix of every wall-clock field in a response
// (core.RunStats *_ns and flow.SolveStats duration_ns). Those are the only
// bytes that legitimately differ between two computations of one answer.
var timingKey = []byte(`_ns":`)

// hashSeed is fixed per process so hashes from different goroutines and
// from the replay compare.
var hashSeed = maphash.MakeSeed()

// normalizedHash hashes body with every wall-clock number replaced by 0,
// without copying it.
func normalizedHash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for {
		i := bytes.Index(body, timingKey)
		if i < 0 {
			h.Write(body)
			return h.Sum64()
		}
		i += len(timingKey)
		h.Write(body[:i])
		h.WriteByte('0')
		body = body[i+digitRun(body[i:]):]
	}
}

// digitRun is the length of the JSON number at the start of b.
func digitRun(b []byte) int {
	n := 0
	for n < len(b) && (b[n] == '-' || (b[n] >= '0' && b[n] <= '9')) {
		n++
	}
	return n
}

// outcome is what the client keeps of one served request; bodies are kept
// once per distinct normalized content (see bodyStore).
type outcome struct {
	prog   int32
	status int16
	hash   uint64
}

// respKey identifies one distinct (program, normalized response) pair.
type respKey struct {
	prog int32
	hash uint64
}

// bodyStore keeps the first body seen for each distinct response, so the
// oracle can verify every served response without holding every body.
type bodyStore struct {
	mu     sync.Mutex
	bodies map[respKey]storedBody
}

// storedBody is one served response as the transport wrote it.
type storedBody struct {
	status int
	body   []byte
}

func newBodyStore() *bodyStore { return &bodyStore{bodies: make(map[respKey]storedBody)} }

func (s *bodyStore) keep(k respKey, status int, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bodies[k]; !ok {
		s.bodies[k] = storedBody{status: status, body: append([]byte(nil), body...)}
	}
}

// sender issues requests to the in-process mux from one goroutine.
type sender struct {
	mux   http.Handler
	store *bodyStore
	w     respWriter
	seen  map[respKey]bool
}

func newSender(mux http.Handler, store *bodyStore) *sender {
	return &sender{mux: mux, store: store, seen: make(map[respKey]bool)}
}

// send serves one request and records its outcome.
func (s *sender) send(prog int, p *program) outcome {
	s.w.reset()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/allocate", bytes.NewReader(p.body))
	if err != nil {
		return outcome{prog: int32(prog), status: -1}
	}
	s.mux.ServeHTTP(&s.w, req)
	o := outcome{prog: int32(prog), status: int16(s.w.status), hash: normalizedHash(s.w.body.Bytes())}
	k := respKey{o.prog, o.hash}
	if !s.seen[k] {
		s.seen[k] = true
		s.store.keep(k, s.w.status, s.w.body.Bytes())
	}
	return o
}

// sample is one measured request: its outcome, its latency and, in an open
// loop, how late the generator sent it.
type sample struct {
	outcome
	seq     int64
	warmup  bool // served in an open loop's warm-up, not timed
	latency time.Duration
	lag     time.Duration
	target  time.Time
	sent    time.Time
}

// openLoop sends Poisson arrivals at rate over the zipfian key space from
// `senders` goroutines. A sender sleeps until a request's intended send
// time rather than spinning, which would take the processors the engine
// workers need. A request whose sender was still busy with the previous one
// at that time is timed from it, so the wait a slow request imposes on the
// next counts. A request whose sender was idle is timed from when it was
// sent: the sleep's overshoot (half a millisecond of timer slack, several
// when the host is slow to wake the process) is the generator's lateness,
// reported as such. Warm-up arrivals are served and verified but excluded
// from latency.
func openLoop(senders []*sender, progs []*program, rate float64, warmup, dur time.Duration, seed int64) ([]sample, error) {
	arr, err := generator.NewExponential(rate, seed)
	if err != nil {
		return nil, err
	}
	keys, err := generator.NewZipfian(len(progs), zipfTheta, seed+1)
	if err != nil {
		return nil, err
	}
	sch, err := generator.NewScheduler(generator.ScheduleConfig{Arrival: arr, Keys: keys, Warmup: warmup, Duration: dur})
	if err != nil {
		return nil, err
	}
	out := make([][]sample, len(senders))
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			free := start // when this sender's previous request returned
			for {
				op, ok := sch.Next()
				if !ok {
					return
				}
				target := start.Add(op.Intended)
				busy := free.After(target)
				time.Sleep(time.Until(target))
				sent := time.Now()
				o := s.send(op.Key, progs[op.Key])
				end := time.Now()
				free = end
				from := sent
				if busy {
					from = target
				}
				out[i] = append(out[i], sample{outcome: o, seq: op.Seq, warmup: op.Warmup,
					latency: end.Sub(from), lag: sent.Sub(target), target: target, sent: sent})
			}
		}(i, s)
	}
	wg.Wait()
	return merge(out), nil
}

// closedLoop runs one client per sender, each sending its next request as
// soon as the previous one returns, until dur has passed and at least
// minOps requests have completed. next maps a claimed sequence number (and
// the client's index) to a program index.
func closedLoop(senders []*sender, progs func(int) *program, next func(client int, seq int64) int, dur time.Duration, minOps int64) ([]sample, time.Duration) {
	var seq, done atomic.Int64
	out := make([][]sample, len(senders))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			for time.Now().Before(deadline) || done.Load() < minOps {
				n := seq.Add(1) - 1
				k := next(i, n)
				p := progs(k)
				t0 := time.Now()
				o := s.send(k, p)
				end := time.Now()
				out[i] = append(out[i], sample{outcome: o, seq: n, latency: end.Sub(t0), target: t0, sent: t0})
				done.Add(1)
			}
		}(i, s)
	}
	wg.Wait()
	return merge(out), time.Since(start)
}

// merge concatenates per-sender samples in sequence order.
func merge(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	sortSamples(all)
	return all
}
