package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// gatedEval wraps areaEval with a gate: the first call parks on release
// after signalling entered, so tests can pile requests up behind a stuck
// batch and race cancellations against the queue.
func gatedEval(total *atomic.Int64, entered chan<- struct{}, release <-chan struct{}) EvalFunc {
	inner := areaEval(nil, total)
	var first sync.Once
	return func(qs []query.Range, ests []float64) error {
		var gate bool
		first.Do(func() { gate = true })
		if gate {
			entered <- struct{}{}
			<-release
		}
		return inner(qs, ests)
	}
}

// TestCancelledRequestNeverEvaluated parks the evaluator on its first batch,
// cancels requests stuck in the queue behind it, and verifies the abandoned
// slots are reclaimed at flush time: cancelled callers unblock with ctx.Err(),
// the evaluator never sees their queries, and the serve.cancelled counter
// accounts for every reclaimed slot.
func TestCancelledRequestNeverEvaluated(t *testing.T) {
	var total atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := metrics.New()
	b := New(gatedEval(&total, entered, release), Config{MaxBatch: 4, Metrics: reg})
	defer b.Close()

	// Plug: one request that enters evaluation and parks there.
	plugDone := make(chan error, 1)
	go func() {
		_, err := b.Estimate(q1(1))
		plugDone <- err
	}()
	<-entered

	// Pile eight more requests into the queue behind the stuck batch.
	const queued = 8
	const cancel = 5
	ctxs := make([]context.CancelFunc, queued)
	errs := make(chan error, queued)
	var started sync.WaitGroup
	for i := 0; i < queued; i++ {
		ctx, stop := context.WithCancel(context.Background())
		ctxs[i] = stop
		started.Add(1)
		go func(ctx context.Context) {
			started.Done()
			_, err := b.EstimateContext(ctx, q1(1))
			errs <- err
		}(ctx)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the goroutines enqueue

	// Cancel five of the queued requests; their callers must unblock with
	// ctx.Err() well before the evaluator is released.
	var cancelledErrs int
	for i := 0; i < cancel; i++ {
		ctxs[i]()
	}
	deadline := time.After(2 * time.Second)
	for cancelledErrs < cancel {
		select {
		case err := <-errs:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
			}
			cancelledErrs++
		case <-deadline:
			t.Fatalf("only %d/%d cancelled callers unblocked while evaluator parked", cancelledErrs, cancel)
		}
	}

	// Release the evaluator; the survivors and the plug complete normally.
	close(release)
	if err := <-plugDone; err != nil {
		t.Fatalf("plug request: %v", err)
	}
	for i := 0; i < queued-cancel; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("surviving caller returned %v", err)
		}
	}
	for _, stop := range ctxs {
		stop()
	}

	if got, want := total.Load(), int64(1+queued-cancel); got != want {
		t.Errorf("evaluator saw %d queries, want %d (cancelled slots must be reclaimed)", got, want)
	}
	b.Close()
	if got := reg.Snapshot().Counters["serve.cancelled"]; got != cancel {
		t.Errorf("serve.cancelled = %d, want %d", got, cancel)
	}
}

// TestCancelWhileBlockedOnFullQueue cancels a caller that is parked on the
// queue send itself (queue full behind a stuck batch): it must unblock with
// ctx.Err() while still owning its request, and the evaluator must never see
// the query.
func TestCancelWhileBlockedOnFullQueue(t *testing.T) {
	var total atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	b := New(gatedEval(&total, entered, release), Config{MaxBatch: 2, Queue: 1})
	defer b.Close()

	plugDone := make(chan error, 1)
	go func() {
		_, err := b.Estimate(q1(1))
		plugDone <- err
	}()
	<-entered

	// Fill the 1-slot queue, then park one more caller on the send.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := b.Estimate(q1(2))
		queuedDone <- err
	}()
	for len(b.reqs) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	blockedDone := make(chan error, 1)
	go func() {
		_, err := b.EstimateContext(ctx, q1(3))
		blockedDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park on the full queue
	stop()
	select {
	case err := <-blockedDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked caller returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller parked on a full queue did not honour cancellation")
	}

	close(release)
	if err := <-plugDone; err != nil {
		t.Fatalf("plug: %v", err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued: %v", err)
	}
	if got := total.Load(); got != 2 {
		t.Errorf("evaluator saw %d queries, want 2", got)
	}
}

// TestCancelRaceExactAccounting hammers EstimateContext with aggressive
// deadlines racing the scheduler's fill/flush and checks the core invariant:
// a request is evaluated iff its caller received a result, so the evaluator's
// query count equals the callers' result count exactly — nothing lost,
// nothing double-counted — and every issued request is either a result or a
// context error.
func TestCancelRaceExactAccounting(t *testing.T) {
	var total atomic.Int64
	eval := func(qs []query.Range, ests []float64) error {
		total.Add(int64(len(qs)))
		time.Sleep(50 * time.Microsecond) // widen the claim/cancel race window
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
	b := New(eval, Config{MaxBatch: 8})

	const clients = 16
	const perClient = 200
	var ok, cancelled atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				timeout := time.Duration(rng.Intn(300)) * time.Microsecond
				ctx, stop := context.WithTimeout(context.Background(), timeout)
				_, err := b.EstimateContext(ctx, q1(1))
				stop()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					t.Errorf("unexpected error %v", err)
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	b.Close()

	if got, want := ok.Load()+cancelled.Load(), int64(clients*perClient); got != want {
		t.Fatalf("results + cancellations = %d, want %d issued", got, want)
	}
	if got, want := total.Load(), ok.Load(); got != want {
		t.Errorf("evaluator saw %d queries, callers received %d results (must match exactly)", got, want)
	}
}

// TestCloseDrainsWithCancelledRequests races Close against callers that are
// cancelling mid-queue: Close must still return with every claimed request
// delivered and every abandoned one reclaimed — provably complete in the
// sense that no caller is left parked and the accounting identity holds.
func TestCloseDrainsWithCancelledRequests(t *testing.T) {
	var total atomic.Int64
	b := New(areaEval(nil, &total), Config{MaxBatch: 8})

	const clients = 24
	var ok, cancelled, closed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, stop := context.WithTimeout(context.Background(), time.Duration(50+i*20)*time.Microsecond)
			defer stop()
			_, err := b.EstimateContext(ctx, q1(1))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				cancelled.Add(1)
			case errors.Is(err, ErrClosed):
				closed.Add(1)
			default:
				t.Errorf("unexpected error %v", err)
			}
		}(c)
	}
	time.Sleep(500 * time.Microsecond)
	b.Close() // races the in-flight cancellations
	wg.Wait() // every caller must have unblocked

	if got, want := ok.Load()+cancelled.Load()+closed.Load(), int64(clients); got != want {
		t.Fatalf("outcomes = %d, want %d issued", got, want)
	}
	if got, want := total.Load(), ok.Load(); got != want {
		t.Errorf("evaluator saw %d queries, callers received %d results", got, want)
	}

	// After Close: an expired context still reports its own error; a live one
	// gets ErrClosed.
	expired, stop := context.WithCancel(context.Background())
	stop()
	if _, err := b.EstimateContext(expired, q1(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("expired ctx after Close: %v, want context.Canceled", err)
	}
	if _, err := b.EstimateContext(context.Background(), q1(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("live ctx after Close: %v, want ErrClosed", err)
	}
}
