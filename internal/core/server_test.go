package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/fault"
	"kdesel/internal/gpu"
	"kdesel/internal/learner"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// TestEstimateBatchMatchesEstimate: the batch entry point must be
// bit-identical to per-query Estimate on both execution paths, since the
// serve coalescer routes arbitrary interleavings of traffic through it.
func TestEstimateBatchMatchesEstimate(t *testing.T) {
	tab := buildClusteredTable(t, 500, 11)
	rng := rand.New(rand.NewSource(21))
	qs := make([]query.Range, 40)
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 1.5)
	}

	cases := []struct {
		name   string
		device bool
	}{{"host", false}, {"device", true}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Mode: Heuristic, SampleSize: 200, Seed: 7}
			cfgB := cfg
			if tc.device {
				for _, c := range []*Config{&cfg, &cfgB} {
					dev, err := gpu.NewDevice(gpu.GTX460())
					if err != nil {
						t.Fatal(err)
					}
					c.Device = dev
				}
			}
			single, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Build(tab, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			ests := make([]float64, len(qs))
			if err := batched.EstimateBatch(qs, ests); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want, err := single.Estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(ests[i]) != math.Float64bits(want) {
					t.Errorf("query %d: batch %v != single %v", i, ests[i], want)
				}
			}
			if got, want := batched.Queries(), len(qs); got != want {
				t.Errorf("Queries() = %d after batch, want %d", got, want)
			}
		})
	}
}

// TestEstimateBatchValidation: one malformed query fails the whole batch
// before any evaluation, with a typed error and no query-count drift.
func TestEstimateBatchValidation(t *testing.T) {
	tab := buildClusteredTable(t, 100, 3)
	e, err := Build(tab, Config{Mode: Heuristic, SampleSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := query.NewRange([]float64{0, 0}, []float64{1, 1})
	bad := query.NewRange([]float64{2, 0}, []float64{1, 1}) // inverted
	ests := make([]float64, 2)
	if err := e.EstimateBatch([]query.Range{good, bad}, ests); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("err = %v, want ErrInvalidQuery", err)
	}
	if e.Queries() != 0 {
		t.Errorf("Queries() = %d after rejected batch, want 0", e.Queries())
	}
	if err := e.EstimateBatch(make([]query.Range, 3), make([]float64, 2)); err == nil {
		t.Error("mismatched result-slot length accepted")
	}
	if err := e.EstimateBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestEstimateBatchThenFeedback: adaptive serving through the batch path
// must tune exactly like per-query serving — Feedback re-estimates its own
// query internally, so not retaining the contribution cache is invisible.
func TestEstimateBatchThenFeedback(t *testing.T) {
	tab := buildClusteredTable(t, 600, 5)
	fbs := feedbackSet(t, tab, rand.New(rand.NewSource(8)), 24, 1.5)
	cfg := Config{Mode: Adaptive, SampleSize: 300, Seed: 9, DisableMaintenance: true}

	perQuery, err := Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaBatch, err := Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range fbs {
		if _, err := perQuery.Estimate(fb.Query); err != nil {
			t.Fatal(err)
		}
		if err := perQuery.Feedback(fb.Query, fb.Actual); err != nil {
			t.Fatal(err)
		}
		est := make([]float64, 1)
		if err := viaBatch.EstimateBatch([]query.Range{fb.Query}, est); err != nil {
			t.Fatal(err)
		}
		if err := viaBatch.Feedback(fb.Query, fb.Actual); err != nil {
			t.Fatal(err)
		}
	}
	hp, hb := perQuery.Bandwidth(), viaBatch.Bandwidth()
	for j := range hp {
		if math.Float64bits(hp[j]) != math.Float64bits(hb[j]) {
			t.Errorf("bandwidth[%d] diverged: per-query %g vs batch-path %g", j, hp[j], hb[j])
		}
	}
}

// TestServerDisabledCoalescing: MaxBatch ≤ 1 must mean no scheduler, direct
// mutex path, same answers.
func TestServerDisabledCoalescing(t *testing.T) {
	tab := buildClusteredTable(t, 200, 2)
	e, err := Build(tab, Config{Mode: Heuristic, SampleSize: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{MaxBatch: 1})
	defer s.Close()
	if s.Coalescing() {
		t.Fatal("MaxBatch=1 should disable coalescing")
	}
	q := dataQuery(tab, rand.New(rand.NewSource(5)), 1.5)
	got, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Build(tab, Config{Mode: Heuristic, SampleSize: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("direct-path server estimate %v != estimator %v", got, want)
	}
}

// TestServerRejectsInvalidBeforeEnqueue: malformed queries come back with a
// typed error without occupying a batch slot.
func TestServerRejectsInvalidBeforeEnqueue(t *testing.T) {
	tab := buildClusteredTable(t, 100, 6)
	e, err := Build(tab, Config{Mode: Heuristic, SampleSize: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{})
	defer s.Close()
	if _, err := s.Estimate(query.NewRange([]float64{0}, []float64{1})); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("dimension mismatch: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := s.Estimate(query.NewRange([]float64{0, math.NaN()}, []float64{1, 1})); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("NaN bound: err = %v, want ErrInvalidQuery", err)
	}
}

// TestServerConcurrentEstimateFeedbackCheckpoint is the serving-path race
// test: estimate traffic coalesces while feedback tunes the model and
// checkpoints persist it, all interleaved. Run under -race (the Makefile
// race-resilience target includes this package); the assertions here are
// liveness and the [0,1] output contract.
func TestServerConcurrentEstimateFeedbackCheckpoint(t *testing.T) {
	tab := buildClusteredTable(t, 500, 13)
	reg := metrics.New()
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 200, Seed: 17, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{MaxBatch: 16, Metrics: reg})

	const clients = 8
	const perClient = 60
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < perClient; i++ {
				q := dataQuery(tab, rng, 1.5)
				est, err := s.Estimate(q)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if math.IsNaN(est) || est < 0 || est > 1 {
					t.Errorf("client %d: estimate %v escapes [0,1]", c, est)
					return
				}
			}
		}()
	}
	// Feedback writer: tunes the model concurrently with serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; i < 40; i++ {
			q := dataQuery(tab, rng, 1.5)
			actual, err := tab.Selectivity(q)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Feedback(q, actual); err != nil {
				t.Errorf("feedback: %v", err)
				return
			}
		}
	}()
	// Checkpointer: persists mid-flight.
	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(ckpt); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	s.Close()

	if got, want := s.Queries(), clients*perClient; got < want {
		t.Errorf("Queries() = %d, want ≥ %d", got, want)
	}
	if _, err := RestoreCheckpoint(ckpt, tab, nil); err != nil {
		t.Fatalf("restore checkpoint written during serving: %v", err)
	}
	// Coalescing must actually have happened under 8-way concurrency.
	if bs := reg.Histogram("serve.batch_size"); bs.Count() >= int64(clients*perClient) {
		t.Errorf("batches = %d for %d queries: no coalescing", bs.Count(), clients*perClient)
	}
}

// TestServerDeviceFaultDegradesCleanly: a device dying mid-serving must
// degrade the coalesced path to the host without deadlock, lost requests,
// or out-of-range estimates.
func TestServerDeviceFaultDegradesCleanly(t *testing.T) {
	tab := buildClusteredTable(t, 400, 23)
	dev, err := gpu.NewDevice(gpu.GTX460())
	if err != nil {
		t.Fatal(err)
	}
	// Long transfer-failure bursts defeat the retry policy and force the
	// fallback; the trailing clauses make sure any lingering device use
	// would keep failing.
	dev.SetFaultInjector(fault.New(3, fault.Schedule{
		fault.DeviceTransfer: {At: []int{20, 21, 22, 23, 24, 25, 26, 27, 28, 29}},
	}))
	e, err := Build(tab, Config{
		Mode:           Adaptive,
		SampleSize:     128,
		Seed:           31,
		Device:         dev,
		RetryBaseDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{MaxBatch: 8})

	const clients = 6
	const perClient = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			for i := 0; i < perClient; i++ {
				q := dataQuery(tab, rng, 1.5)
				est, err := s.Estimate(q)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				if math.IsNaN(est) || est < 0 || est > 1 {
					t.Errorf("client %d: estimate %v escapes [0,1]", c, est)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Close()

	if got := s.Health(); got == Healthy {
		t.Error("device faults fired but health still Healthy")
	}
	if e.Device() != nil && e.Health() != Healthy {
		// After fallback the engine must be gone — serving stayed host-side.
		t.Error("estimator degraded but still holds a device engine")
	}
	if got, want := s.Queries(), clients*perClient; got != want {
		t.Errorf("Queries() = %d, want %d (no lost or duplicated requests)", got, want)
	}
}

// TestEstimateBatchErrorAccounting extends the injected-fault accounting to
// the error path: when the device fails persistently AND the host fallback
// itself is impossible (sabotaged sample mirror), Estimate and EstimateBatch
// must surface the error without counting any query — Queries() only moves
// when an estimate was actually produced.
func TestEstimateBatchErrorAccounting(t *testing.T) {
	tab := buildClusteredTable(t, 300, 27)
	dev, err := gpu.NewDevice(gpu.GTX460())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(tab, Config{
		Mode:           Heuristic,
		SampleSize:     64,
		Seed:           33,
		Device:         dev,
		RetryBaseDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	qs := make([]query.Range, 4)
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 1.5)
	}

	// A few healthy estimates first, so the later failures must leave the
	// counter where it stands rather than merely keep it at zero.
	ests := make([]float64, len(qs))
	if err := e.EstimateBatch(qs, ests); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(qs[0]); err != nil {
		t.Fatal(err)
	}
	want := len(qs) + 1
	if got := e.Queries(); got != want {
		t.Fatalf("Queries() = %d after healthy serving, want %d", got, want)
	}

	// Now every transfer fails, defeating the retry policy, and the host
	// mirror is gone, so fallbackToHost cannot rebuild either: both entry
	// points must error out.
	dev.SetFaultInjector(fault.New(9, fault.Schedule{
		fault.DeviceTransfer: {Every: 1},
	}))
	e.hostMirror = nil
	if err := e.EstimateBatch(qs, ests); err == nil {
		t.Fatal("EstimateBatch succeeded with a dead device and no fallback")
	}
	if _, err := e.Estimate(qs[0]); err == nil {
		t.Fatal("Estimate succeeded with a dead device and no fallback")
	}
	if got := e.Queries(); got != want {
		t.Errorf("Queries() = %d after errored estimates, want %d (errors must not count)", got, want)
	}
}

// TestServerCloseRacesEstimateFeedback races Close against in-flight
// Estimate and Feedback traffic: every estimate completes with a sane value
// — callers that lose the race to the batcher shutdown are transparently
// rerouted to the direct path, never surfaced serve.ErrClosed — Feedback
// keeps working throughout (Close only stops the coalescer, not the writer
// path), and nothing panics or deadlocks. Run with -race.
func TestServerCloseRacesEstimateFeedback(t *testing.T) {
	tab := buildClusteredTable(t, 400, 41)
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 43, DisableMaintenance: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{MaxBatch: 8})

	const clients = 8
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for i := 0; i < 400; i++ {
				est, err := s.Estimate(dataQuery(tab, rng, 1.5))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if math.IsNaN(est) || est < 0 || est > 1 {
					t.Errorf("client %d: estimate %v escapes [0,1]", c, est)
					return
				}
				served.Add(1)
			}
		}()
	}
	// Feedback writer: mutates the model while estimates race Close.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; i < 100; i++ {
			q := dataQuery(tab, rng, 1.5)
			actual, err := tab.Selectivity(q)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Feedback(q, actual); err != nil {
				t.Errorf("feedback round %d: %v", i, err)
				return
			}
		}
	}()
	// Close once some traffic has demonstrably flowed, so the shutdown
	// genuinely overlaps live estimates instead of winning trivially.
	for served.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()

	if est, err := s.Estimate(dataQuery(tab, rand.New(rand.NewSource(7)), 1.5)); err != nil || math.IsNaN(est) {
		t.Errorf("Estimate after Close: est = %v, err = %v, want a direct-path estimate", est, err)
	}
	// The writer path outlives the coalescer.
	q := dataQuery(tab, rand.New(rand.NewSource(8)), 1.5)
	actual, err := tab.Selectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feedback(q, actual); err != nil {
		t.Errorf("Feedback after Close: %v", err)
	}
}

// TestSnapshotPathBitIdenticalAllModes is the property test for snapshot
// isolation: across every estimator mode, estimates served lock-free from
// the published snapshot must be bit-identical to the pre-snapshot behavior
// of serializing every estimate behind the writer mutex — including while
// feedback keeps mutating the model between rounds — and the two twins'
// bandwidths must stay bit-identical throughout.
func TestSnapshotPathBitIdenticalAllModes(t *testing.T) {
	cases := []struct {
		name        string
		mode        Mode
		logarithmic bool
	}{
		{"heuristic", Heuristic, false},
		{"scv", SCV, false},
		{"batch", Batch, false},
		{"adaptive", Adaptive, false},
		{"log-adaptive", Adaptive, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildClusteredTable(t, 400, 13)
			fbs := chaosWorkload(t, tab, 23, 60)
			cfg := Config{
				Mode:       tc.mode,
				SampleSize: 64,
				Seed:       17,
				Learner:    learner.Config{Logarithmic: tc.logarithmic},
			}
			if tc.mode == Batch {
				cfg.Training = feedbackSet(t, tab, rand.New(rand.NewSource(3)), 30, 2)
			}
			eSnap, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eLock, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// MaxBatch 1 disables coalescing so each Estimate exercises the
			// single-query path directly; the serialized twin is the pre-PR
			// mutex-everything configuration.
			sSnap := NewServer(eSnap, ServeConfig{MaxBatch: 1})
			sLock := NewServer(eLock, ServeConfig{MaxBatch: 1, SerializeEstimates: true})
			defer sSnap.Close()
			defer sLock.Close()

			if _, ok := eSnap.SnapshotGen(); !ok {
				t.Fatal("server did not publish a snapshot for a host model")
			}
			if _, ok := eLock.SnapshotGen(); ok {
				t.Fatal("SerializeEstimates twin published a snapshot")
			}
			// Prove the lock-free path is actually taken, not silently
			// falling through to the mutex.
			if _, ok := eSnap.estimateSnapshot(fbs[0].Query); !ok {
				t.Fatal("estimateSnapshot refused a published snapshot")
			}
			eSnap.queries.Add(-1) // undo the probe's count to keep twins aligned

			for i, fb := range fbs {
				a, err := sSnap.Estimate(fb.Query)
				if err != nil {
					t.Fatalf("round %d: snapshot estimate: %v", i, err)
				}
				b, err := sLock.Estimate(fb.Query)
				if err != nil {
					t.Fatalf("round %d: locked estimate: %v", i, err)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("round %d: snapshot %v != locked %v", i, a, b)
				}
				// Mutate between rounds so later estimates run against a
				// model the writer has since republished.
				if i%3 == 0 {
					if err := sSnap.Feedback(fb.Query, fb.Actual); err != nil {
						t.Fatal(err)
					}
					if err := sLock.Feedback(fb.Query, fb.Actual); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Batch path: the coalescer's snapshot evaluation against the
			// locked EstimateBatch.
			qs := probeQueries(tab, 31, 16)
			estsA := make([]float64, len(qs))
			estsB := make([]float64, len(qs))
			if !eSnap.estimateBatchSnapshot(qs, estsA) {
				t.Fatal("batch was not served from the snapshot")
			}
			if err := eLock.EstimateBatch(qs, estsB); err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if math.Float64bits(estsA[i]) != math.Float64bits(estsB[i]) {
					t.Fatalf("batch query %d: snapshot %v != locked %v", i, estsA[i], estsB[i])
				}
			}
			hA, hB := eSnap.Bandwidth(), eLock.Bandwidth()
			for j := range hA {
				if math.Float64bits(hA[j]) != math.Float64bits(hB[j]) {
					t.Fatalf("bandwidth dim %d diverged: %v vs %v", j, hA, hB)
				}
			}
		})
	}
}

// TestServerEstimateAfterClose is the regression test for the post-Close
// routing bug: Close documents that the Server remains usable, but Estimate
// used to route into the closed batcher and return "serve: batcher closed"
// forever. After Close, estimates must flow through the direct path and
// match a never-coalescing twin bit-for-bit.
func TestServerEstimateAfterClose(t *testing.T) {
	tab := buildClusteredTable(t, 300, 15)
	build := func() *Estimator {
		e, err := Build(tab, Config{Mode: Heuristic, SampleSize: 128, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	s := NewServer(build(), ServeConfig{MaxBatch: 8})
	rng := rand.New(rand.NewSource(16))
	warm := dataQuery(tab, rng, 1.5)
	if _, err := s.Estimate(warm); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Coalescing() {
		t.Error("Coalescing() true after Close")
	}
	twin := NewServer(build(), ServeConfig{MaxBatch: 1})
	for i := 0; i < 10; i++ {
		q := dataQuery(tab, rng, 1.5)
		got, err := s.Estimate(q)
		if err != nil {
			t.Fatalf("Estimate %d after Close: %v", i, err)
		}
		want, err := twin.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("query %d: post-Close estimate %v != direct-path %v", i, got, want)
		}
	}
	s.Close() // repeated Close stays safe
	if _, err := s.Estimate(dataQuery(tab, rng, 1.5)); err != nil {
		t.Errorf("Estimate after double Close: %v", err)
	}
}

// TestTwoServersOneMetricsRegistry is the regression test for the serve
// gauge collision: two Servers sharing one metrics registry used to clobber
// each other's serve.queue_depth gauge func (last registration won), and
// closing either left a stale closure reporting forever. With per-model
// prefixes both gauges coexist, and Close removes exactly its own.
func TestTwoServersOneMetricsRegistry(t *testing.T) {
	tab := buildClusteredTable(t, 200, 18)
	reg := metrics.New()
	build := func(seed int64) *Estimator {
		e, err := Build(tab, Config{Mode: Heuristic, SampleSize: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	sa := NewServer(build(1), ServeConfig{MaxBatch: 8, Metrics: reg, MetricPrefix: "model.a."})
	sb := NewServer(build(2), ServeConfig{MaxBatch: 8, Metrics: reg, MetricPrefix: "model.b."})
	snap := reg.Snapshot()
	for _, name := range []string{"model.a.serve.queue_depth", "model.b.serve.queue_depth"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing: servers on one registry collided", name)
		}
	}
	sa.Close()
	snap = reg.Snapshot()
	if _, ok := snap.Gauges["model.a.serve.queue_depth"]; ok {
		t.Error("closed server's queue-depth gauge still registered")
	}
	if _, ok := snap.Gauges["model.b.serve.queue_depth"]; !ok {
		t.Error("surviving server's gauge removed by the other's Close")
	}
	sb.Close()
}

// TestEstimateContext covers the deadline-propagation contract of the
// serving entry point: an expired context is rejected before any work, a
// deadline-bound request contending the writer mutex (serialize mode, no
// snapshots to fall back to) gives up with the context's error instead of
// parking behind the writer, and Health stays readable throughout — the
// readiness probe must never block behind a stuck writer.
func TestEstimateContext(t *testing.T) {
	tab := buildClusteredTable(t, 300, 5)
	est, err := Build(tab, Config{Mode: Heuristic, SampleSize: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Serialize mode with coalescing off: every estimate goes through the
	// writer mutex, the worst case for deadline propagation.
	s := NewServer(est, ServeConfig{MaxBatch: -1, SerializeEstimates: true})
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	q := dataQuery(tab, rng, 1.5)

	expired, stop := context.WithCancel(context.Background())
	stop()
	if _, err := s.EstimateContext(expired, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: err = %v, want context.Canceled", err)
	}
	if got := est.Queries(); got != 0 {
		t.Fatalf("expired ctx was counted: Queries() = %d", got)
	}

	// Park a fake writer on the mutex (stands in for a long ANALYZE).
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		s.mu.Lock()
		close(held)
		<-release
		s.mu.Unlock()
	}()
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := s.EstimateContext(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("contended writer: err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("caller parked %v on a held writer mutex despite a 5ms deadline", waited)
	}
	if h := s.Health(); h != Healthy {
		t.Fatalf("Health() = %v while writer held, want Healthy (and non-blocking)", h)
	}
	close(release)

	// With the writer free again, a generous deadline serves normally and
	// the query is counted exactly once.
	got, err := s.EstimateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Fatalf("estimate = %v", got)
	}
	if n := est.Queries(); n != 1 {
		t.Fatalf("Queries() = %d, want 1", n)
	}
}
