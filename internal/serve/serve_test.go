package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// areaEval is a deterministic stand-in evaluator: the "estimate" of a query
// is its 1-D interval length, so every caller can verify it got the result
// for its own query and not a neighbour's.
func areaEval(calls, total *atomic.Int64) EvalFunc {
	return func(qs []query.Range, ests []float64) error {
		if calls != nil {
			calls.Add(1)
		}
		if total != nil {
			total.Add(int64(len(qs)))
		}
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
}

func q1(w float64) query.Range {
	return query.NewRange([]float64{0}, []float64{w})
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	for _, mb := range []int{1, -1} {
		if b := New(areaEval(nil, nil), Config{MaxBatch: mb}); b != nil {
			b.Close()
			t.Errorf("MaxBatch=%d: got live batcher, want nil (disabled)", mb)
		}
	}
	var b *Batcher
	b.Close() // nil Close must be a no-op
}

func TestDefaults(t *testing.T) {
	b := New(areaEval(nil, nil), Config{})
	defer b.Close()
	if got := b.MaxBatch(); got != DefaultMaxBatch {
		t.Errorf("MaxBatch = %d, want %d", got, DefaultMaxBatch)
	}
}

// TestEachCallerGetsOwnResult hammers the batcher with concurrent callers
// carrying distinct queries and checks every caller receives exactly its
// own evaluation.
func TestEachCallerGetsOwnResult(t *testing.T) {
	var calls, total atomic.Int64
	b := New(areaEval(&calls, &total), Config{MaxBatch: 8})
	defer b.Close()

	const callers = 64
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := float64(c + 1)
			for r := 0; r < rounds; r++ {
				got, err := b.Estimate(q1(want))
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("caller %d got %v, want %v", c, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total.Load() != callers*rounds {
		t.Errorf("evaluated %d queries, want %d", total.Load(), callers*rounds)
	}
	// With 64 callers racing into batches of 8, coalescing must have
	// merged at least some requests: strictly fewer eval calls than
	// queries. (A scheduler that never batches would do one call each.)
	if calls.Load() >= callers*rounds {
		t.Errorf("eval calls = %d for %d queries: no coalescing happened", calls.Load(), callers*rounds)
	}
}

// TestBatchSizeCapped verifies no evaluation exceeds MaxBatch even when the
// queue holds far more requests than one batch.
func TestBatchSizeCapped(t *testing.T) {
	const maxBatch = 4
	var maxSeen atomic.Int64
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	eval := func(qs []query.Range, ests []float64) error {
		once.Do(func() { close(first) })
		<-block // hold the scheduler so the queue piles up
		if n := int64(len(qs)); n > maxSeen.Load() {
			maxSeen.Store(n)
		}
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
	b := New(eval, Config{MaxBatch: maxBatch, Queue: 64})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	<-first      // scheduler is now blocked inside eval; queue fills behind it
	close(block) // release; remaining requests must drain in ≤ maxBatch chunks
	wg.Wait()
	b.Close()
	if maxSeen.Load() > maxBatch {
		t.Errorf("largest batch = %d, want ≤ %d", maxSeen.Load(), maxBatch)
	}
}

// TestErrorBroadcast checks a failing evaluation reports the same error to
// every member of the batch.
func TestErrorBroadcast(t *testing.T) {
	boom := errors.New("boom")
	eval := func(qs []query.Range, ests []float64) error { return boom }
	b := New(eval, Config{MaxBatch: 8})
	defer b.Close()

	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseDrainsAndRejects: Close must serve everything already accepted,
// then reject new callers with ErrClosed — and never deadlock either side.
func TestCloseDrainsAndRejects(t *testing.T) {
	var total atomic.Int64
	b := New(areaEval(nil, &total), Config{MaxBatch: 8})

	const callers = 32
	var wg sync.WaitGroup
	var served, rejected atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := b.Estimate(q1(2))
			switch {
			case errors.Is(err, ErrClosed):
				rejected.Add(1)
			case err != nil:
				t.Errorf("unexpected error: %v", err)
			case got != 2:
				t.Errorf("got %v, want 2", got)
			default:
				served.Add(1)
			}
		}()
	}
	b.Close() // races the callers on purpose
	wg.Wait()
	if served.Load()+rejected.Load() != callers {
		t.Errorf("served %d + rejected %d != %d callers", served.Load(), rejected.Load(), callers)
	}
	if total.Load() != served.Load() {
		t.Errorf("evaluator saw %d queries but %d callers were served", total.Load(), served.Load())
	}
	if _, err := b.Estimate(q1(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Estimate after Close: err = %v, want ErrClosed", err)
	}
	b.Close() // repeated Close must be safe
}

// TestZeroMaxWaitServesImmediately: the default batcher never waits for
// batch-mates — a lone request is evaluated as soon as it is queued.
func TestZeroMaxWaitServesImmediately(t *testing.T) {
	b := New(areaEval(nil, nil), Config{})
	defer b.Close()
	done := make(chan struct{})
	go func() {
		if got, err := b.Estimate(q1(3)); err != nil || got != 3 {
			t.Errorf("got %v, %v; want 3, nil", got, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lone request did not complete")
	}
}

// TestBatchIsWhatQueuedWhileBusy pins the work-conserving contract with an
// evaluator that parks on every call: a lone request is evaluated as a batch
// of one; N requests that queue while the evaluator is busy reach the next
// call together, MaxBatch at a time; and a request cancelled while queued
// never reaches the evaluator.
func TestBatchIsWhatQueuedWhileBusy(t *testing.T) {
	const maxBatch = 4
	calls := make(chan []float64)
	gate := make(chan struct{})
	stop := make(chan struct{})
	eval := func(qs []query.Range, ests []float64) error {
		ws := make([]float64, len(qs))
		for i, q := range qs {
			ws[i] = q.Hi[0] - q.Lo[0]
			ests[i] = ws[i]
		}
		select {
		case calls <- ws:
		case <-stop:
			return nil
		}
		select {
		case <-gate:
		case <-stop:
		}
		return nil
	}
	b := New(eval, Config{MaxBatch: maxBatch, Queue: 16})
	defer b.Close()
	// A failed check must not leave the evaluator parked, or Close hangs.
	defer close(stop)

	estimate := func(ctx context.Context, w float64) <-chan error {
		done := make(chan error, 1)
		go func() {
			got, err := b.EstimateContext(ctx, q1(w))
			if err == nil && got != w {
				err = fmt.Errorf("got %v, want %v", got, w)
			}
			done <- err
		}()
		return done
	}
	// next returns the widths of the evaluator's next call; the evaluator
	// stays parked inside that call until release.
	next := func() []float64 {
		t.Helper()
		select {
		case ws := <-calls:
			sort.Float64s(ws)
			return ws
		case <-time.After(5 * time.Second):
			t.Fatal("evaluator was not called")
			return nil
		}
	}
	release := func() { gate <- struct{}{} }
	queued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); len(b.reqs) != n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth %d, want %d", len(b.reqs), n)
			}
		}
	}
	want := func(got []float64, want ...float64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("evaluator call = %v, want %v", got, want)
		}
	}
	ok := func(done <-chan error) {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// A lone request is a batch of one.
	lone := estimate(context.Background(), 1)
	want(next(), 1)
	release()
	ok(lone)

	// Six requests queue behind a busy evaluator: the next call takes
	// MaxBatch of them, the one after takes the rest.
	plug := estimate(context.Background(), 10)
	want(next(), 10)
	var waiting []<-chan error
	for w := 2; w <= 7; w++ {
		waiting = append(waiting, estimate(context.Background(), float64(w)))
	}
	queued(6)
	release()
	ok(plug)
	first := next()
	if len(first) != maxBatch {
		t.Fatalf("first batch after the busy call = %v, want %d queries", first, maxBatch)
	}
	release()
	second := next()
	release()
	all := append(first, second...)
	sort.Float64s(all)
	want(all, 2, 3, 4, 5, 6, 7)
	for _, done := range waiting {
		ok(done)
	}

	// A request cancelled while queued never reaches the evaluator.
	plug = estimate(context.Background(), 10)
	want(next(), 10)
	ctx, cancel := context.WithCancel(context.Background())
	doomed := estimate(ctx, 50)
	queued(1)
	survivor := estimate(context.Background(), 60)
	queued(2)
	cancel()
	if err := <-doomed; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	release()
	ok(plug)
	want(next(), 60)
	release()
	ok(survivor)
}

// TestCloseDrainsFullQueueInMaxBatchChunks closes a batcher whose queue
// holds several batches' worth of requests behind a busy evaluator: Close
// must serve all of them, and the drain must still cut batches at MaxBatch.
func TestCloseDrainsFullQueueInMaxBatchChunks(t *testing.T) {
	const maxBatch = 2
	entered := make(chan struct{})
	gate := make(chan struct{})
	var maxSeen, total atomic.Int64
	eval := func(qs []query.Range, ests []float64) error {
		if total.Add(int64(len(qs))) == int64(len(qs)) {
			close(entered)
			<-gate
		}
		if n := int64(len(qs)); n > maxSeen.Load() {
			maxSeen.Store(n)
		}
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
	b := New(eval, Config{MaxBatch: maxBatch, Queue: 16})
	const callers = 13
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		if got, err := b.Estimate(q1(1)); err != nil || got != 1 {
			t.Errorf("got %v, %v; want 1, nil", got, err)
		}
	}
	wg.Add(1)
	go call()
	<-entered
	wg.Add(callers - 1)
	for i := 1; i < callers; i++ {
		go call()
	}
	for len(b.reqs) != callers-1 {
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	<-b.done // intake closed with the queue still full
	close(gate)
	wg.Wait()
	<-closed
	if got := total.Load(); got != callers {
		t.Errorf("evaluated %d queries, want %d", got, callers)
	}
	if got := maxSeen.Load(); got > maxBatch {
		t.Errorf("largest batch = %d, want ≤ %d", got, maxBatch)
	}
}

// BenchmarkBatcherLoneRequest is one caller's round trip through a Batcher
// with a trivial evaluator: the layer's cost when nothing else is queued.
func BenchmarkBatcherLoneRequest(b *testing.B) {
	bt := New(areaEval(nil, nil), Config{})
	defer bt.Close()
	q := q1(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Estimate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMetrics verifies the registry wiring: batch-size and wait histograms
// observe once per batch / request, and the queue-depth gauge is readable.
func TestMetrics(t *testing.T) {
	reg := metrics.New()
	var total atomic.Int64
	b := New(areaEval(nil, &total), Config{MaxBatch: 8, Metrics: reg})

	const callers = 24
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	bs := reg.Histogram("serve.batch_size")
	if bs.Count() == 0 {
		t.Error("serve.batch_size never observed")
	}
	if int64(bs.Sum()) != callers {
		t.Errorf("serve.batch_size sum = %v, want %d (every request in exactly one batch)", bs.Sum(), callers)
	}
	if ws := reg.Histogram("serve.wait_seconds"); ws.Count() != callers {
		t.Errorf("serve.wait_seconds count = %d, want %d", ws.Count(), callers)
	}
	if _, ok := reg.Snapshot().Gauges["serve.queue_depth"]; !ok {
		t.Error("serve.queue_depth gauge not registered")
	}
	// Close must unregister the gauge func: a dead batcher neither reports a
	// stale depth nor stays pinned in memory by the leaked closure.
	b.Close()
	if _, ok := reg.Snapshot().Gauges["serve.queue_depth"]; ok {
		t.Error("serve.queue_depth gauge still registered after Close")
	}
}
