package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// the client root span's id: the root has id set, a child carries it as
// parent.
type span struct {
	id, parent uint64
	name       string
	iv         interval
	n          int // queries in a kde batch evaluation
}

// tracer records spans in memory while on; writeFile saves them at exit.
// A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark and since slice out the spans one leg recorded.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

type spanKey struct{}

// root opens a client root span; the returned context carries its id to
// idTransport, and done closes it.
func (t *tracer) root(ctx context.Context, name string) (context.Context, func()) {
	if !t.recording() {
		return ctx, func() {}
	}
	id := t.ids.Add(1)
	start := t.now()
	return context.WithValue(ctx, spanKey{}, id), func() {
		t.add(span{id: id, name: name, iv: interval{start, t.now()}})
	}
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, n int, f func() error) error {
	if !t.recording() {
		return f()
	}
	start := t.now()
	err := f()
	t.add(span{name: name, iv: interval{start, t.now()}, n: n})
	return err
}

// requestIDHeader links a server-side span to its client root span.
const requestIDHeader = "X-Bench-Request-Id"

// idTransport stamps each request with its root span's id.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler wraps the httpserve.Server and records one
// "httpserve<path>" span per request, child of the client's root span.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.recording() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	h.tr.add(span{parent: parent, name: "httpserve" + r.URL.Path, iv: interval{start, h.tr.now()}})
}

// durations returns the durations in ms of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.iv.end-s.iv.start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per root span named root, its self time in ms: its
// duration minus what its child spans (linked by request id) cover.
func selfTimes(spans []span, root string) []float64 {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s.iv)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name == root {
			out = append(out, float64(selfTime(s.iv, kids[s.id]))/1e6)
		}
	}
	return out
}

// waits matches each request span named req to the evaluation span named
// eval that served it — the latest-starting one lying inside the request —
// and returns the time in ms from enqueue to that evaluation's start, and
// the evaluations' batch sizes.
func waits(spans []span, req, eval string) (wait, sizes []float64) {
	var evals []span
	for _, s := range spans {
		if s.name == eval {
			evals = append(evals, s)
			sizes = append(sizes, float64(s.n))
		}
	}
	sort.Slice(evals, func(i, j int) bool { return evals[i].iv.start < evals[j].iv.start })
	for _, s := range spans {
		if s.name != req {
			continue
		}
		// Last evaluation starting at or before the request ended.
		i := sort.Search(len(evals), func(i int) bool { return evals[i].iv.start > s.iv.end }) - 1
		if i >= 0 && evals[i].iv.start >= s.iv.start && evals[i].iv.end <= s.iv.end {
			wait = append(wait, float64(evals[i].iv.start-s.iv.start)/1e6)
		}
	}
	return wait, sizes
}

// writeFile saves every recorded span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		err = enc.Encode(struct {
			ID     uint64 `json:"id,omitempty"`
			Parent uint64 `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			N      int    `json:"n,omitempty"`
		}{s.id, s.parent, s.name, s.iv.start, s.iv.end, s.n})
		if err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
