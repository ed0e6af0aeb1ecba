package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"kdesel/internal/httpclient"
)

// client is the benchmark's side of the wire: the repo's httpclient for
// /estimate and /feedback, and the same transport for /ingest, which
// httpclient has no call for.
type client struct {
	url string
	hc  *http.Client
	c   *httpclient.Client
	tr  *tracer // nil in the untraced run
}

func newClient(url string, tr *tracer) (*client, error) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: sessions}
	if tr != nil {
		rt = idTransport{base: rt}
	}
	hc := &http.Client{Transport: rt}
	c, err := httpclient.New(httpclient.Config{BaseURL: url, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	return &client{url: url, hc: hc, c: c, tr: tr}, nil
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// ingestBody and ingestReply mirror the /ingest wire form.
type ingestBody struct {
	Model    string      `json:"model"`
	Rows     [][]float64 `json:"rows,omitempty"`
	DeleteLo []float64   `json:"delete_lo,omitempty"`
	DeleteHi []float64   `json:"delete_hi,omitempty"`
}

type ingestReply struct {
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

func (cl *client) ingest(ctx context.Context, body ingestBody) (ingestReply, error) {
	var out ingestReply
	buf, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.url+"/ingest", bytes.NewReader(buf))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return out, json.Unmarshal(raw, &out)
}

// estRecord is one estimate a read session received.
type estRecord struct {
	model int
	probe *probe
	value float64
}

// tally is what one session measured. Latencies are in milliseconds.
type tally struct {
	est, fb, ing []float64
	reads        []estRecord
	qerr         []float64 // stream session: q-error of each query
	attempted    int
	failed       int
	events       int // change-feed mutations sent (stream session)
	streamOps    int
	streamDone   bool
	errs         []string
	// qps sums each session's estimates over its own wall time; replayRate
	// is the stream session's operations over its wall time. A session
	// ends when its last call returns, so a call stalled past the deadline
	// lengthens its session.
	qps, replayRate float64
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.est = append(t.est, o.est...)
	t.fb = append(t.fb, o.fb...)
	t.ing = append(t.ing, o.ing...)
	t.reads = append(t.reads, o.reads...)
	t.qerr = append(t.qerr, o.qerr...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.events += o.events
	t.streamOps += o.streamOps
	t.streamDone = t.streamDone || o.streamDone
	t.qps += o.qps
	t.replayRate += o.replayRate
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// qerror is max(est/truth, truth/est) with both floored at one tuple of the
// table the query ran on, so empty answers stay finite.
func qerror(est, truth float64, rows int) float64 {
	floor := 1 / float64(rows)
	e, t := math.Max(est, floor), math.Max(truth, floor)
	return math.Max(e/t, t/e)
}

// estimate sends one /estimate and records it.
func (cl *client) estimate(ctx context.Context, t *tally, key string, p *probe) (float64, bool) {
	ctx, done := cl.tr.root(ctx, "client.estimate")
	start := time.Now()
	v, err := cl.c.Estimate(ctx, key, p.q.Lo, p.q.Hi)
	lat := time.Since(start)
	done()
	t.attempted++
	if err != nil {
		t.fail(err)
		return 0, false
	}
	t.est = append(t.est, ms(lat))
	if !(v >= 0 && v <= 1) {
		t.fail(fmt.Errorf("estimate %v outside [0,1]", v))
		return v, false
	}
	return v, true
}

// readSession runs closed-loop /estimate calls until the deadline. With
// keep set, answers are kept for the bit-identity check and q-error;
// beside the stream the model changes under the reads, so they are not.
func (cl *client) readSession(ctx context.Context, in *inputs, keys []string, s int, until time.Time, keep bool, t *tally) {
	for i := 0; time.Now().Before(until); i++ {
		m, p := in.read(s, i)
		if v, ok := cl.estimate(ctx, t, keys[m], p); ok && keep {
			t.reads = append(t.reads, estRecord{model: m, probe: p, value: v})
		}
	}
}

// streamSession replays the evolving stream in order until the deadline or
// the stream's end.
func (cl *client) streamSession(ctx context.Context, in *inputs, key string, until time.Time, t *tally) {
	for _, op := range in.stream {
		if !time.Now().Before(until) {
			return
		}
		t.streamOps++
		switch op.kind {
		case opQuery:
			v, ok := cl.estimate(ctx, t, key, &op.probe)
			if !ok {
				continue
			}
			t.qerr = append(t.qerr, qerror(v, op.probe.truth, op.probe.rows))
			fctx, done := cl.tr.root(ctx, "client.feedback")
			start := time.Now()
			err := cl.c.Feedback(fctx, key, op.probe.q.Lo, op.probe.q.Hi, op.probe.truth)
			lat := time.Since(start)
			done()
			t.attempted++
			if err != nil {
				t.fail(err)
				continue
			}
			t.fb = append(t.fb, ms(lat))
		case opInsert, opDelete:
			body := ingestBody{Model: key, Rows: op.rows}
			if op.kind == opDelete {
				body.DeleteLo, body.DeleteHi = op.region.Lo, op.region.Hi
			}
			ictx, done := cl.tr.root(ctx, "client.ingest")
			start := time.Now()
			rep, err := cl.ingest(ictx, body)
			lat := time.Since(start)
			done()
			t.attempted++
			t.events += op.events
			if err != nil {
				t.fail(err)
				continue
			}
			t.ing = append(t.ing, ms(lat))
			if got := rep.Inserted + rep.Deleted; got != op.events {
				t.fail(fmt.Errorf("ingest applied %d mutations to the table, want %d", got, op.events))
			}
		}
	}
	t.streamDone = true
}

// run drives the workload's sessions for d and returns their merged
// tally. Read-only workloads run read sessions only; with a stream, session
// 0 replays it and the others read.
func (cl *client) run(in *inputs, keys []string, d time.Duration, withStream bool) *tally {
	ctx := context.Background()
	tallies := make([]tally, sessions)
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t := &tallies[s]
			if withStream && s == 0 {
				cl.streamSession(ctx, in, keys[0], until, t)
				t.replayRate = float64(t.streamOps) / time.Since(start).Seconds()
			} else {
				cl.readSession(ctx, in, keys, s, until, in.stream == nil, t)
			}
			t.qps = float64(len(t.est)) / time.Since(start).Seconds()
		}(s)
	}
	wg.Wait()
	total := &tallies[0]
	for s := 1; s < sessions; s++ {
		total.merge(&tallies[s])
	}
	return total
}
