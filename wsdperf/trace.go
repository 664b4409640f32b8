package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at. All spans are
// recorded by the benchmark's own wrappers around the SUT's public entry
// points; the program itself is not instrumented.
type spanKind uint8

const (
	// spanClient: the driver's request to the coordinator, from send to the
	// end of the reply.
	spanClient spanKind = iota
	// spanCoord: the coordinator's http.Handler.
	spanCoord
	// spanWorkerReq: one coordinator-to-worker request, from RoundTrip to the
	// close of the reply body (cluster.Config.Client's transport).
	spanWorkerReq
	// spanWorker: a worker's http.Handler.
	spanWorker
)

// span is one recorded interval. Spans of one client request share no
// explicit identifier (the coordinator builds its worker requests without
// the inbound request's context); analyze links them by containment, which
// is unambiguous because each operation kind is issued one at a time.
type span struct {
	kind   spanKind
	op     string // request path without the slash: "ingest", "estimate", ...
	worker int    // worker index for worker spans, -1 otherwise
	iv     interval
}

// tracer keeps spans in memory while enabled; analyze reads them after the
// run. A nil *tracer records nothing and wraps nothing.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the span clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) record(kind spanKind, op string, worker int, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, op: op, worker: worker, iv: interval{start, end}})
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

func opOf(path string) string { return strings.TrimPrefix(path, "/") }

// handler wraps a coordinator (worker < 0) or worker http.Handler.
func (t *tracer) handler(worker int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	kind := spanWorker
	if worker < 0 {
		kind = spanCoord
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(kind, opOf(r.URL.Path), worker, start, t.now())
	})
}

// transport wraps the coordinator's client transport; workers maps a
// worker's host:port to its index.
func (t *tracer) transport(inner http.RoundTripper, workers map[string]int) http.RoundTripper {
	if t == nil {
		return inner
	}
	return &tracingTransport{t: t, inner: inner, workers: workers}
}

type tracingTransport struct {
	t       *tracer
	inner   http.RoundTripper
	workers map[string]int
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := tt.t.now()
	worker, op := tt.workers[req.URL.Host], opOf(req.URL.Path)
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.t.record(spanWorkerReq, op, worker, start, tt.t.now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.record(spanWorkerReq, op, worker, start, tt.t.now())
	}}
	return resp, nil
}

// spanBody ends a worker-request span when the caller closes the reply.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// opSpans is one operation's spans split by kind, each sorted by start.
type opSpans struct {
	client, coord, workerReq []span
	worker                   [][]span // by worker index
}

func splitSpans(spans []span, op string, workers int) opSpans {
	s := opSpans{worker: make([][]span, workers)}
	for _, sp := range spans {
		if sp.op != op {
			continue
		}
		switch sp.kind {
		case spanClient:
			s.client = append(s.client, sp)
		case spanCoord:
			s.coord = append(s.coord, sp)
		case spanWorkerReq:
			s.workerReq = append(s.workerReq, sp)
		case spanWorker:
			s.worker[sp.worker] = append(s.worker[sp.worker], sp)
		}
	}
	byStart := func(xs []span) {
		sort.Slice(xs, func(i, j int) bool { return xs[i].iv.start < xs[j].iv.start })
	}
	byStart(s.client)
	byStart(s.coord)
	byStart(s.workerReq)
	for _, xs := range s.worker {
		byStart(xs)
	}
	return s
}

// startingIn returns the spans of xs (sorted by start) that start inside iv.
func startingIn(xs []span, iv interval) []span {
	lo := sort.Search(len(xs), func(i int) bool { return xs[i].iv.start >= iv.start })
	hi := lo
	for hi < len(xs) && xs[hi].iv.start <= iv.end {
		hi++
	}
	return xs[lo:hi]
}

// opBreakdown is one operation's per-request layer figures, in ms.
type opBreakdown struct {
	coordSelf    []float64 // coordinator handler minus its worker requests
	worker       []float64 // worker handler
	fanout       []float64 // first worker request start to last one's end
	skew         []float64 // slowest worker request minus the fastest
	workerHop    []float64 // worker request minus its worker handler
	clientHop    []float64 // client request minus the coordinator handler
	unattributed []float64 // share of the client request left after hop, self and fan-out
}

// add appends o's figures to b's.
func (b *opBreakdown) add(o opBreakdown) {
	b.coordSelf = append(b.coordSelf, o.coordSelf...)
	b.worker = append(b.worker, o.worker...)
	b.fanout = append(b.fanout, o.fanout...)
	b.skew = append(b.skew, o.skew...)
	b.workerHop = append(b.workerHop, o.workerHop...)
	b.clientHop = append(b.clientHop, o.clientHop...)
	b.unattributed = append(b.unattributed, o.unattributed...)
}

func nsMs(ns int64) float64 { return float64(ns) / 1e6 }

// breakdown links an operation's spans by containment and derives the layer
// figures.
func breakdown(spans []span, op string, workers int) opBreakdown {
	s := splitSpans(spans, op, workers)
	var b opBreakdown
	type coordFig struct{ self, fanout int64 }
	coordAt := make(map[int64]coordFig, len(s.coord))
	for _, h := range s.coord {
		kids := startingIn(s.workerReq, h.iv)
		ivs := make([]interval, len(kids))
		for i, k := range kids {
			ivs[i] = k.iv
		}
		self := selfTime(h.iv, ivs)
		b.coordSelf = append(b.coordSelf, nsMs(self))
		var fan int64
		if len(kids) > 0 {
			first, last := kids[0].iv.start, kids[0].iv.end
			fast, slow := kids[0].iv.dur(), kids[0].iv.dur()
			for _, k := range kids[1:] {
				first, last = min(first, k.iv.start), max(last, k.iv.end)
				fast, slow = min(fast, k.iv.dur()), max(slow, k.iv.dur())
			}
			fan = last - first
			b.fanout = append(b.fanout, nsMs(fan))
			if len(kids) > 1 {
				b.skew = append(b.skew, nsMs(slow-fast))
			}
		}
		coordAt[h.iv.start] = coordFig{self, fan}
	}
	for _, r := range s.workerReq {
		if ws := startingIn(s.worker[r.worker], r.iv); len(ws) > 0 {
			b.workerHop = append(b.workerHop, nsMs(r.iv.dur()-ws[0].iv.dur()))
		}
	}
	for _, xs := range s.worker {
		for _, w := range xs {
			b.worker = append(b.worker, nsMs(w.iv.dur()))
		}
	}
	for _, c := range s.client {
		hs := startingIn(s.coord, c.iv)
		if len(hs) == 0 {
			continue
		}
		hop := c.iv.dur() - hs[0].iv.dur()
		b.clientHop = append(b.clientHop, nsMs(hop))
		f := coordAt[hs[0].iv.start]
		if d := c.iv.dur(); d > 0 {
			b.unattributed = append(b.unattributed, float64(d-hop-f.self-f.fanout)/float64(d))
		}
	}
	return b
}
