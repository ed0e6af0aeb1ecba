// Package serve implements request coalescing for the estimate hot path:
// a work-conserving batcher that lets concurrent callers share single fused
// traversals of the sample.
//
// An estimator embedded in a query optimizer is a high-QPS inference
// service, but the KDE estimate is a full map over the sample (paper
// eq. 13) whose cost is nearly independent of how many queries ride along
// one traversal (kde.SelectivityBatch scores a whole query tile against
// each L1-resident sample chunk). Concurrent Estimate callers enqueue; a
// single scheduler goroutine takes the first queued request, drains
// whatever else is already queued (up to MaxBatch) and evaluates the batch
// at once with one call to the configured evaluator. It never waits for
// batch-mates: a batch is what queued while the previous batch ran (plus
// what runnable callers enqueue during one processor yield before a lone
// request is served). An idle service therefore serves a lone request as a
// batch of one with no added delay, and batches grow only when arrivals
// outpace evaluation.
//
// There is deliberately no fill timer: on an otherwise idle Go runtime a
// short timer fires at the next ~1ms poll, so even a 100µs fill window
// costs every lone estimate about 1.1ms and batches nothing. Without one,
// the e2ebench probe-d2 estimate p90 is 0.14ms against 1.57ms with a 100µs
// window (2-vCPU host, Go 1.24).
//
// The package is deliberately estimator-agnostic — the evaluator is a
// closure — so locking stays with the owner of the model (core.Server
// serializes batch evaluation against Feedback and Checkpoint; the batcher
// itself never blocks enqueueing callers on model work).
package serve

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// ErrClosed is returned by Estimate after Close.
var ErrClosed = errors.New("serve: batcher closed")

// DefaultMaxBatch is one fused traversal tile budget.
const DefaultMaxBatch = 64

// EvalFunc evaluates a batch of validated queries, writing one estimate
// per query into ests (len(ests) == len(qs)). An error applies to the
// whole batch and is reported to every waiting caller.
type EvalFunc func(qs []query.Range, ests []float64) error

// Config tunes a Batcher.
type Config struct {
	// MaxBatch caps the queries coalesced into one evaluation (default
	// DefaultMaxBatch). Values ≤ 1 disable coalescing: New returns nil, and
	// callers fall back to their direct path — the disabled batcher costs
	// nothing.
	MaxBatch int
	// Queue is the pending-request channel capacity (default 4·MaxBatch).
	Queue int
	// Metrics, when non-nil, receives serve.queue_depth (gauge),
	// serve.batch_size (histogram), serve.wait_seconds (histogram,
	// enqueue-to-evaluation latency), and serve.cancelled (counter of
	// requests abandoned by their caller before evaluation). Nil disables
	// instrumentation.
	Metrics *metrics.Registry
	// MetricPrefix is prepended to every metric name this batcher registers
	// (e.g. "model.orders(0,1)." yields model.orders(0,1).serve.queue_depth).
	// Batchers sharing one registry MUST use distinct prefixes, or their
	// instruments collide: the queue-depth gauge func of the second would
	// silently replace the first's. Close unregisters the gauge func under
	// the same prefixed name, so a closed batcher neither reports a stale
	// depth nor stays pinned in memory by the leaked closure.
	MetricPrefix string
	// ProfileLabel, when true, tags the scheduler goroutine with the pprof
	// label kdesel_serve=batcher so CPU profiles separate coalescing
	// overhead from kernel time (kdebench -profile-serve).
	ProfileLabel bool
}

func (c Config) maxBatch() int {
	if c.MaxBatch == 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c Config) queue(maxBatch int) int {
	if c.Queue > 0 {
		return c.Queue
	}
	return 4 * maxBatch
}

// Lifecycle of an enqueued request, tracked in request.state. Ownership is
// settled by a single CAS race: the scheduler claims the request at flush
// time (reqPending→reqClaimed) and a cancelling caller abandons it
// (reqPending→reqCancelled). Exactly one transition wins, which is what
// keeps batch accounting exact — a request is evaluated (and counted by the
// evaluator) if and only if the claim won.
const (
	reqPending   int32 = iota // enqueued, owner undecided
	reqClaimed                // scheduler won: will evaluate and signal done
	reqCancelled              // caller won: scheduler recycles without evaluating
)

// request is one enqueued Estimate call. done is a reusable 1-slot signal
// channel; the scheduler fills est/err before signalling. done is signalled
// for claimed requests only, so pooled requests always carry an empty
// channel.
type request struct {
	q     query.Range
	enq   time.Time
	est   float64
	err   error
	state atomic.Int32
	done  chan struct{}
}

// Batcher coalesces concurrent Estimate calls into batched evaluations.
// A nil *Batcher is inert — Estimate on it panics by design, so owners
// must route around a disabled batcher (see Config.MaxBatch).
type Batcher struct {
	eval     EvalFunc
	maxBatch int

	// mu gates intake against Close: Estimate sends while holding the read
	// lock, so once Close acquires the write lock and closes done, no sender
	// is mid-enqueue and none can slip in after the scheduler's final drain.
	mu     sync.RWMutex
	closed bool

	reqs    chan *request
	done    chan struct{} // closed by Close; stops intake and the scheduler
	stopped sync.WaitGroup

	pool sync.Pool // *request

	batchSize *metrics.Histogram
	waitSec   *metrics.Histogram
	cancelled *metrics.Counter
	// met/gaugeName identify the queue-depth gauge func registered in New so
	// Close can unregister it (metrics.UnregisterGaugeFunc); nil/"" when no
	// registry is attached.
	met       *metrics.Registry
	gaugeName string
}

// New starts a batcher draining into eval. It returns nil when cfg disables
// coalescing (MaxBatch ≤ 1 but non-zero), so callers can test for the
// disabled state and take their direct path with zero overhead.
func New(eval EvalFunc, cfg Config) *Batcher {
	mb := cfg.maxBatch()
	if mb <= 1 {
		return nil
	}
	b := &Batcher{
		eval:     eval,
		maxBatch: mb,
		reqs:     make(chan *request, cfg.queue(mb)),
		done:     make(chan struct{}),
	}
	if r := cfg.Metrics; r != nil {
		b.batchSize = r.Histogram(cfg.MetricPrefix + "serve.batch_size")
		b.waitSec = r.Histogram(cfg.MetricPrefix + "serve.wait_seconds")
		b.cancelled = r.Counter(cfg.MetricPrefix + "serve.cancelled")
		b.met = r
		b.gaugeName = cfg.MetricPrefix + "serve.queue_depth"
		r.RegisterGaugeFunc(b.gaugeName, func() float64 { return float64(len(b.reqs)) })
	}
	b.stopped.Add(1)
	if cfg.ProfileLabel {
		go pprof.Do(context.Background(), pprof.Labels("kdesel_serve", "batcher"), func(context.Context) {
			b.run()
		})
	} else {
		go b.run()
	}
	return b
}

// MaxBatch returns the configured batch cap.
func (b *Batcher) MaxBatch() int { return b.maxBatch }

// Estimate enqueues q and blocks until its batch has been evaluated,
// returning the query's estimate. Safe for any number of concurrent
// callers. After Close it fails fast with ErrClosed.
func (b *Batcher) Estimate(q query.Range) (float64, error) {
	return b.EstimateContext(context.Background(), q)
}

// EstimateContext is Estimate with cancellation: when ctx expires before the
// request's batch is evaluated, the caller unblocks immediately with
// ctx.Err() and the abandoned slot is reclaimed by the scheduler at flush
// time — a cancelled request never rides in an evaluated batch, so the
// evaluator's query accounting stays exact. If cancellation races the
// scheduler's claim and loses, the batch already evaluated (and counted) the
// query, so its real result is returned instead of ctx.Err().
func (b *Batcher) EstimateContext(ctx context.Context, q query.Range) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, ErrClosed
	}
	r := b.getRequest(q)
	// A full queue blocks here, but only while the scheduler is live: Close
	// cannot take the write lock until this send completes, and the
	// scheduler keeps draining until then. A caller whose context expires
	// while blocked still owns the request (it was never enqueued) and
	// recycles it itself.
	select {
	case b.reqs <- r:
	case <-ctx.Done():
		b.mu.RUnlock()
		b.putRequest(r)
		return 0, ctx.Err()
	}
	b.mu.RUnlock()
	select {
	case <-r.done:
		est, err := r.est, r.err
		b.putRequest(r)
		return est, err
	case <-ctx.Done():
		if r.state.CompareAndSwap(reqPending, reqCancelled) {
			// Cancellation won: the scheduler now owns the request and will
			// recycle it, unevaluated, when its batch flushes. Touching r
			// after this point would race the recycle.
			return 0, ctx.Err()
		}
		// The scheduler claimed the request first: its evaluation is done or
		// imminent, and the query is already counted. Consume the result so
		// the pooled request is never abandoned with a pending done signal.
		<-r.done
		est, err := r.est, r.err
		b.putRequest(r)
		return est, err
	}
}

// getRequest readies a pooled (or fresh) request for q.
func (b *Batcher) getRequest(q query.Range) *request {
	r, _ := b.pool.Get().(*request)
	if r == nil {
		r = &request{done: make(chan struct{}, 1)}
	}
	r.q = q
	r.est, r.err = 0, nil
	r.state.Store(reqPending)
	if b.waitSec != nil {
		r.enq = time.Now()
	}
	return r
}

// putRequest resets a request and returns it to the pool. Callers must own
// the request exclusively (delivered, never-enqueued, or reclaimed-by-
// scheduler states only).
func (b *Batcher) putRequest(r *request) {
	r.q = query.Range{}
	r.state.Store(reqPending)
	b.pool.Put(r)
}

// Close stops intake, serves every already-enqueued request, and waits for
// the scheduler to exit. Concurrent and repeated calls are safe; Estimate
// calls racing Close either complete normally or return ErrClosed. Close
// also unregisters the queue-depth gauge func, so the dead batcher stops
// reporting and is no longer pinned by the registry.
func (b *Batcher) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	b.mu.Unlock()
	b.stopped.Wait()
	if b.met != nil {
		b.met.UnregisterGaugeFunc(b.gaugeName)
	}
}

// run is the scheduler: take the first queued request, drain what else is
// already queued, evaluate, deliver, repeat. It never waits on a clock for
// batch-mates; the only pause is one processor yield before serving a lone
// request.
func (b *Batcher) run() {
	defer b.stopped.Done()
	var (
		batch = make([]*request, 0, b.maxBatch)
		qs    = make([]query.Range, b.maxBatch)
		ests  = make([]float64, b.maxBatch)
	)
	for {
		// Wait for the batch's first request. Once intake is closed, the
		// remaining queue is drained below and served before exiting.
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		case <-b.done:
		}
		batch = b.drain(batch)
		if len(batch) == 0 {
			return // closed and fully drained
		}
		if len(batch) == 1 {
			// A caller's send hands its request straight to this goroutine,
			// so a lone request often means the other callers are runnable
			// but not yet scheduled, not that there are none. Yield the
			// processor once so they can enqueue; with nothing else runnable
			// Gosched returns at once. This never waits on a clock.
			runtime.Gosched()
			batch = b.drain(batch)
		}

		// Claim the batch. Each request is settled by one CAS against its
		// cancelling caller: winners are compacted to the front and ride the
		// evaluation; losers (cancelled while queued) are recycled here, so
		// an abandoned request neither occupies a batch slot nor reaches the
		// evaluator's accounting.
		n := 0
		for i, r := range batch {
			batch[i] = nil
			if !r.state.CompareAndSwap(reqPending, reqClaimed) {
				b.cancelled.Inc()
				b.putRequest(r)
				continue
			}
			if b.waitSec != nil {
				b.waitSec.ObserveDuration(time.Since(r.enq))
			}
			qs[n] = r.q
			batch[n] = r
			n++
		}
		if n > 0 {
			err := b.eval(qs[:n], ests[:n])
			if b.batchSize != nil {
				b.batchSize.Observe(float64(n))
			}
			for i, r := range batch[:n] {
				r.est, r.err = ests[i], err
				r.done <- struct{}{}
				batch[i] = nil
			}
		}
		batch = batch[:0]
	}
}

// drain appends whatever is already queued to batch, up to MaxBatch,
// without waiting.
func (b *Batcher) drain(batch []*request) []*request {
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}
