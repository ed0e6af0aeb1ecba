// Package shard implements sharded scale-out serving for the KDE
// selectivity estimator: the reservoir sample is partitioned across K
// shard estimators, estimate batches are scattered across the shards and
// the per-shard partial sums are gathered back in a deterministic order,
// so the K-shard result is bit-identical to the single-shard path for any
// K and any worker count.
//
// # Partitioning rule
//
// The global sample of size s is laid out on the fixed 256-row chunk grid
// of internal/parallel (the grid that defines the reduction tree of every
// KDE operation). Global chunk c is owned by shard c mod K and becomes
// that shard's local chunk c div K, so shard k holds the global chunks
// {k, k+K, k+2K, ...} in ascending order. Because only the globally last
// chunk can be partial and it lands as the last local chunk of its owner,
// every shard's local chunk grid is an exact sub-grid of the global one:
// a shard's local chunk partials ARE the corresponding global chunk
// partials, bit for bit. A global sample index gi therefore lives on
// shard (gi/256) mod K at local index ((gi/256)/K)*256 + gi%256.
//
// # Scatter/gather semantics
//
// EstimateBatch scatters the query batch to every shard through the
// shared parallel.Pool (one task per shard); each shard evaluates its
// frozen view's per-chunk partial mass sums (kde.SelectivityBatchPartials)
// without taking any lock. The gather then walks the GLOBAL chunk grid in
// ascending order, picking each chunk's partial from its owner shard, and
// divides by the total sample size — exactly the float-addition sequence
// of the single-estimator reduction, which is what makes the result
// bit-identical at every K.
//
// # Per-shard lifecycle
//
// Every shard owns its writer lock; the group publishes one immutable
// view set (all K shard views plus the uniform bandwidth) through a
// single atomic pointer, so estimates never block on any lock. ANALYZE
// re-optimizes the bandwidth over ONE shard's sample copy — the copy is
// taken under that shard's lock alone, and the optimization runs with no
// lock held — so karma/reservoir maintenance and ANALYZE on one shard
// never stall estimates, which keep serving the previous view set until
// the new bandwidth is installed group-wide. Feedback routes sample
// maintenance by ownership (karma scores are global; replacements take
// only the owning shard's lock) and merges bandwidth gradients in the
// same deterministic global-chunk-order reduction before the learner
// step, so the learned trajectory is invariant in K.
//
// # Partial failure
//
// A shard that fails during the scatter (fault.ShardFail, or a future
// remote-shard transport) degrades the gather instead of failing it: the
// estimate renormalizes over the surviving shards' sample mass, the
// group's health drops to core.Degraded, and the per-request degraded
// flag propagates to the serving layer. Only the loss of every shard is
// an error.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"kdesel/internal/bandwidth"
	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/kde"
	"kdesel/internal/kernel"
	"kdesel/internal/learner"
	"kdesel/internal/loss"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// ErrClosed reports an operation on a closed group.
var ErrClosed = errors.New("shard: group closed")

// ErrAllShardsFailed reports a gather in which no shard survived.
var ErrAllShardsFailed = errors.New("shard: all shards failed")

// Config configures Build. The zero value is usable: one shard, the
// default sample size, Gaussian kernel, quadratic loss.
type Config struct {
	// Shards is K, the number of sample partitions; 0 or 1 mean a single
	// shard (which serves bit-identically to an unsharded estimator —
	// that is the whole point).
	Shards int
	// SampleSize is the TOTAL sample size across all shards (default
	// 1024, matching core.Config).
	SampleSize int
	// Seed derives the sampling and maintenance RNG stream; identical
	// seeds give identical models, any K.
	Seed int64
	// Loss is the feedback loss (default quadratic).
	Loss loss.Function
	// Learner configures the RMSprop bandwidth learner.
	Learner learner.Config
	// Karma configures the sample-maintenance scoring.
	Karma sample.KarmaConfig
	// Precision selects the serving tier of every shard (default
	// Float64).
	Precision mathx.Precision
	// Workers sets the host parallelism of the pool used for both the
	// cross-shard scatter and each shard's own chunk loop: 0 or 1 serial,
	// n > 1 that many workers, negative NumCPU. Results are bit-identical
	// for every setting.
	Workers int
	// Pool, when non-nil, is the shared worker pool to run on instead of
	// one derived from Workers — the model registry passes its
	// process-wide pool here.
	Pool *parallel.Pool
	// Metrics, when non-nil, receives group and per-shard telemetry. Pass
	// a prefixed view (e.g. model.<key>.) to namespace it; the group adds
	// shard.* and shard<i>.* below it.
	Metrics *metrics.Registry
	// Faults, when non-nil, injects deterministic failures (ShardFail at
	// the scatter, CheckpointCorrupt at checkpoint writes).
	Faults *fault.Injector
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c Config) sampleSize() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 1024
}

func (c Config) loss() loss.Function {
	if c.Loss != nil {
		return c.Loss
	}
	return loss.Quadratic{}
}

func (c Config) pool() *parallel.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return parallel.PoolFor(c.Workers)
}

// shardState is one sample partition: a raw KDE estimator plus the writer
// lock that serializes mutations of its sample buffers. Lock ordering:
// the group lock, when held, is always acquired BEFORE any shard lock;
// the ANALYZE sample copy takes a shard lock alone.
type shardState struct {
	mu  sync.Mutex
	est *kde.Estimator // nil for an empty shard (K exceeds the chunk count)

	replacements *metrics.Counter
	analyzes     *metrics.Counter
}

// viewSet is the immutable serving state published through one atomic
// pointer: all shard views were snapshotted under the same group lock, so
// they share one sample generation and one uniform bandwidth — a gather
// never mixes shards from different model states.
type viewSet struct {
	views  []*kde.View // length K; nil entries are empty shards
	sizes  []int       // per-shard sample sizes (0 for empty shards)
	sTotal int         // Σ sizes
	prec   mathx.Precision
}

// Group is a sharded adaptive KDE estimator over one table. All exported
// methods are safe for concurrent use; estimates are lock-free.
type Group struct {
	cfg Config
	tab *table.Table
	d   int
	k   int
	lf  loss.Function

	pool   *parallel.Pool
	faults *fault.Injector
	bufs   parallel.BufferPool

	views atomic.Pointer[viewSet]

	mu     sync.Mutex // guards everything below; ordered before shard locks
	closed bool
	shards []*shardState
	sTotal int
	h      []float64 // uniform bandwidth across shards
	tune   *core.Tuner
	// maint owns the random stream, karma and change-feed maintenance over
	// the global sample index (groupSlots).
	maint    sample.Maintainer
	prec     mathx.Precision
	analyzes int // completed ANALYZE runs (seeds their optimizer RNG)
	anNext   int // round-robin ANALYZE target

	core.Ladder
	queries atomic.Int64

	met groupMetrics
}

type groupMetrics struct {
	reg            *metrics.Registry
	gathers        *metrics.Counter
	degraded       *metrics.Counter
	invalidQueries *metrics.Counter
	checkpoints    *metrics.Counter
}

// Build constructs a K-shard group over tab. The global sample is drawn
// exactly like core.Build (same counted RNG stream from the same seed),
// and the initial bandwidth is Scott's rule over the FULL global sample —
// the two invariants that make the group's estimates a pure function of
// (table, seed), independent of K.
func Build(tab *table.Table, cfg Config) (*Group, error) {
	if tab == nil {
		return nil, errors.New("shard: nil table")
	}
	if tab.Len() == 0 {
		return nil, errors.New("shard: cannot build a group over an empty table")
	}
	g, err := newGroup(tab, cfg)
	if err != nil {
		return nil, err
	}
	flat, err := g.maint.Draw(tab, cfg.sampleSize(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g.sTotal = len(flat) / g.d
	g.h = kde.ScottBandwidth(flat, g.d)
	if err := g.start(partition(flat, g.d, g.k), nil); err != nil {
		return nil, err
	}
	return g, nil
}

// newGroup returns the group of cfg over tab before it has a sample, with
// a fresh learner behind the learning step it shares with the serving core
// (core.Tuner). The step sees the reassembled global sample and installs
// bandwidths group-wide; its hooks run under g.mu, which Feedback holds.
func newGroup(tab *table.Table, cfg Config) (*Group, error) {
	g := &Group{
		cfg:    cfg,
		tab:    tab,
		d:      tab.Dims(),
		k:      cfg.shards(),
		lf:     cfg.loss(),
		pool:   cfg.pool(),
		faults: cfg.Faults,
		prec:   cfg.Precision,
	}
	learn, err := learner.NewRMSprop(g.d, cfg.Learner)
	if err != nil {
		return nil, err
	}
	g.tune = core.NewTuner(g.d, learn, g.lf, g.faults, &g.Ladder,
		func() ([]float64, error) { return g.sampleFlatLocked(), nil },
		func(h []float64, _ bool) error { g.setBandwidthLocked(h); return nil })
	return g, nil
}

// start builds the shards over the row-major partitions parts, turns on
// sample maintenance (restoring st when it is non-nil), instruments the
// group and publishes its first view set.
func (g *Group) start(parts [][]float64, st *sample.State) error {
	var err error
	if g.shards, err = buildShards(parts, g.d, g.pool, g.h, g.prec); err != nil {
		return err
	}
	if err := g.maint.Track(g.tab, g, g.sTotal, g.cfg.Karma, g.lf, st); err != nil {
		return err
	}
	g.instrument(g.cfg.Metrics)
	g.mu.Lock()
	g.publishLocked()
	g.mu.Unlock()
	return nil
}

// partition splits the global row-major sample onto k shards by the
// chunk-round-robin rule; shards beyond the global chunk count get none.
func partition(flat []float64, d, k int) [][]float64 {
	s := len(flat) / d
	parts := make([][]float64, k)
	for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
		lo, hi := parallel.ChunkBounds(c, s)
		parts[c%k] = append(parts[c%k], flat[lo*d:hi*d]...)
	}
	return parts
}

// buildShards builds one shard estimator per non-empty row-major partition,
// configured with the shared pool, the uniform bandwidth, and the serving
// precision. Empty partitions become empty (nil-estimator) shards.
func buildShards(parts [][]float64, d int, pool *parallel.Pool, h []float64, prec mathx.Precision) ([]*shardState, error) {
	shards := make([]*shardState, len(parts))
	for i, part := range parts {
		shards[i] = &shardState{}
		if len(part) == 0 {
			continue
		}
		est, err := kde.New(d, nil)
		if err != nil {
			return nil, err
		}
		est.SetPool(pool)
		if err := est.SetSampleFlat(part); err != nil {
			return nil, fmt.Errorf("shard %d sample: %w", i, err)
		}
		if err := est.SetBandwidth(h); err != nil {
			return nil, err
		}
		if prec != mathx.Float64 {
			est.SetPrecision(prec)
		}
		shards[i].est = est
	}
	return shards, nil
}

func (g *Group) instrument(reg *metrics.Registry) {
	g.met.reg = reg
	g.maint.Instrument(reg)
	g.tune.Instrument(reg)
	if reg == nil {
		return
	}
	// Instruments that mean the same as the serving core's share its core.*
	// names; only the scatter/gather ones are shard.*.
	g.met.gathers = reg.Counter("shard.gathers")
	g.met.degraded = reg.Counter("shard.degraded_gathers")
	g.met.invalidQueries = reg.Counter("core.invalid_queries")
	g.met.checkpoints = reg.Counter("core.checkpoints_written")
	reg.RegisterGaugeFunc("shard.shards", func() float64 { return float64(g.k) })
	reg.RegisterGaugeFunc("shard.sample_size", func() float64 {
		if vs := g.views.Load(); vs != nil {
			return float64(vs.sTotal)
		}
		return 0
	})
	for i, sh := range g.shards {
		sv := reg.WithPrefix(fmt.Sprintf("shard%d.", i))
		sh.replacements = sv.Counter("replacements")
		sh.analyzes = sv.Counter("analyzes")
		est := sh.est
		sv.RegisterGaugeFunc("size", func() float64 {
			if est == nil {
				return 0
			}
			return float64(est.Size())
		})
	}
}

// publishLocked snapshots every shard into a fresh view set and swaps it
// in. Caller holds g.mu; sample mutations all happen under g.mu, so the
// snapshots of one publish are mutually consistent.
func (g *Group) publishLocked() {
	prev := g.views.Load()
	vs := &viewSet{
		views:  make([]*kde.View, g.k),
		sizes:  make([]int, g.k),
		prec:   g.prec,
		sTotal: 0,
	}
	for i, sh := range g.shards {
		if sh.est == nil {
			continue
		}
		var pv *kde.View
		if prev != nil {
			pv = prev.views[i]
		}
		vs.views[i] = sh.est.Snapshot(pv)
		vs.sizes[i] = sh.est.Size()
		vs.sTotal += vs.sizes[i]
	}
	g.views.Store(vs)
}

// Republish re-snapshots the current model state — e.g. to pin a changed
// process-global erf mode into the serving views.
func (g *Group) Republish() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.publishLocked()
	}
}

// Dims returns the model dimensionality.
func (g *Group) Dims() int { return g.d }

// Shards returns K.
func (g *Group) Shards() int { return g.k }

// Size returns the total sample size across shards.
func (g *Group) Size() int {
	if vs := g.views.Load(); vs != nil {
		return vs.sTotal
	}
	return 0
}

// ShardSizes returns the per-shard sample sizes.
func (g *Group) ShardSizes() []int {
	vs := g.views.Load()
	if vs == nil {
		return make([]int, g.k)
	}
	return append([]int(nil), vs.sizes...)
}

// Queries returns the number of estimated queries.
func (g *Group) Queries() int { return int(g.queries.Load()) }

// Bandwidth returns a copy of the current uniform bandwidth.
func (g *Group) Bandwidth() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.h...)
}

// Precision returns the configured serving precision.
func (g *Group) Precision() mathx.Precision {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.prec
}

// SetPrecision switches every shard's serving tier and republishes.
func (g *Group) SetPrecision(p mathx.Precision) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.prec = p
	for _, sh := range g.shards {
		if sh.est != nil {
			sh.mu.Lock()
			sh.est.SetPrecision(p)
			sh.mu.Unlock()
		}
	}
	g.publishLocked()
}

// Close detaches the group: subsequent mutations (feedback, ANALYZE,
// checkpoint, inserts) fail with ErrClosed and the group's gauge functions
// are unregistered, but the last published snapshot stays live — exactly
// like core.Server.Close — so estimates racing an eviction finish normally
// from a handle they already hold instead of failing mid-request.
func (g *Group) Close() {
	// Unsubscribe before taking g.mu: Table.Unsubscribe waits out in-flight
	// callbacks, and those callbacks take g.mu — holding it here would
	// deadlock. After Unsubscribe returns the feed can no longer reach g.
	g.tab.Unsubscribe(g)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	if g.met.reg != nil {
		g.met.reg.UnregisterGaugeFuncsPrefix("shard")
	}
}

// Estimate estimates one query.
func (g *Group) Estimate(q query.Range) (float64, error) {
	est, _, err := g.EstimateDetail(context.Background(), q)
	return est, err
}

// EstimateContext is Estimate with deadline/cancellation propagation: the
// context is consulted before the scatter, at each shard task, and before
// the gather, so an expired request never burns shard CPU.
func (g *Group) EstimateContext(ctx context.Context, q query.Range) (float64, error) {
	est, _, err := g.EstimateDetail(ctx, q)
	return est, err
}

// EstimateDetail is EstimateContext plus the per-request degraded flag:
// true when the gather lost at least one shard and renormalized over the
// survivors.
func (g *Group) EstimateDetail(ctx context.Context, q query.Range) (float64, bool, error) {
	ests := [1]float64{}
	degraded, err := g.EstimateBatchDetail(ctx, []query.Range{q}, ests[:])
	if err != nil {
		return 0, false, err
	}
	return ests[0], degraded, nil
}

// EstimateBatch estimates every query of qs into ests (length len(qs)).
// Bit-identical to the same batch against a single-shard group — and to
// an unsharded kde.Estimator over the same global sample — for any K and
// any worker count.
func (g *Group) EstimateBatch(qs []query.Range, ests []float64) error {
	_, err := g.EstimateBatchDetail(context.Background(), qs, ests)
	return err
}

// EstimateBatchDetail scatters the batch across the shards and gathers
// the per-chunk partials in global chunk order. It reports whether the
// result was degraded by a shard failure (renormalized over survivors).
func (g *Group) EstimateBatchDetail(ctx context.Context, qs []query.Range, ests []float64) (bool, error) {
	nq := len(qs)
	if len(ests) != nq {
		return false, fmt.Errorf("shard: estimate buffer has %d entries, want %d", len(ests), nq)
	}
	for i := range qs {
		if err := core.ValidateQuery(g.d, qs[i]); err != nil {
			g.met.invalidQueries.Inc()
			return false, err
		}
	}
	if nq == 0 {
		return false, nil
	}
	vs := g.views.Load()
	if vs == nil || vs.sTotal == 0 {
		return false, ErrClosed
	}
	// Fault injection fires serially in shard-index order before the
	// scatter, so occurrence schedules are deterministic regardless of
	// how the pool interleaves the shard tasks.
	var failed []bool
	anyFail := false
	if g.faults != nil {
		failed = make([]bool, g.k)
		for k := 0; k < g.k; k++ {
			if vs.views[k] != nil && g.faults.Fire(fault.ShardFail) {
				failed[k] = true
				anyFail = true
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}

	partials := make([][]float64, g.k)
	errs := make([]error, g.k)
	g.pool.Each(g.k, func(k int) {
		v := vs.views[k]
		if v == nil || (failed != nil && failed[k]) {
			return
		}
		// Each shard task inherits the request deadline: once the
		// context is done, remaining shards skip their pass entirely.
		if ctx.Err() != nil {
			return
		}
		p := g.bufs.Get(parallel.Chunks(v.Size()) * nq)
		if err := v.SelectivityBatchPartials(qs, p); err != nil {
			errs[k] = err
			g.bufs.Put(p)
			return
		}
		partials[k] = p
	})
	release := func() {
		for _, p := range partials {
			if p != nil {
				g.bufs.Put(p)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		release()
		return false, err
	}
	for _, err := range errs {
		if err != nil {
			release()
			return false, err
		}
	}

	sSurv := vs.sTotal
	if anyFail {
		sSurv = 0
		for k := 0; k < g.k; k++ {
			if vs.views[k] != nil && !failed[k] {
				sSurv += vs.sizes[k]
			}
		}
		if sSurv == 0 {
			release()
			return false, fmt.Errorf("%w (%d of %d)", ErrAllShardsFailed, g.k, g.k)
		}
	}
	nc := parallel.Chunks(vs.sTotal)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		for c := 0; c < nc; c++ {
			k := c % g.k
			if partials[k] == nil {
				continue // failed shard: renormalize over survivors
			}
			sum += partials[k][(c/g.k)*nq+iq]
		}
		// Division, not multiplication by a reciprocal: the single-shard
		// reduction divides, and one ULP is a bit-identity failure. The
		// clamp is the serving core's, which in-range values pass through
		// untouched.
		ests[iq] = core.Clamp01(sum / float64(sSurv))
	}
	release()
	g.queries.Add(int64(nq))
	g.met.gathers.Inc()
	if anyFail {
		g.met.degraded.Inc()
		g.Degrade(core.Degraded, "shard lost during scatter; serving from survivors")
	}
	return anyFail, nil
}

// owner maps a global sample index to its shard and local index under the
// chunk-round-robin partitioning rule.
func (g *Group) owner(gi int) (shard, local int) {
	c := gi / parallel.ChunkSize
	return c % g.k, (c/g.k)*parallel.ChunkSize + gi%parallel.ChunkSize
}

// Feedback folds one executed query's true selectivity into the model:
// karma sample maintenance first (replacements route to the owning
// shard), then the learning step (core.Tuner, the serving core's own) over
// the gradient gathered in global chunk order. The resulting model
// trajectory is invariant in K and identical to the unsharded estimator's.
func (g *Group) Feedback(q query.Range, actual float64) error {
	if err := core.ValidateFeedback(g.d, q, actual); err != nil {
		g.met.invalidQueries.Inc()
		return err
	}
	actual = core.Clamp01(actual)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	defer g.publishLocked()

	// Per-point contributions, gathered into global sample order, and the
	// estimate reduced over the global chunk grid — the inputs of the
	// karma update, identical for every K.
	contrib := make([]float64, g.sTotal)
	for k, sh := range g.shards {
		if sh.est == nil {
			continue
		}
		cbuf, _, err := sh.est.Contributions(q, nil)
		if err != nil {
			return err
		}
		g.toGlobal(contrib, k, cbuf, 1)
	}
	nc := parallel.Chunks(g.sTotal)
	sum := 0.0
	for c := 0; c < nc; c++ {
		lo, hi := parallel.ChunkBounds(c, g.sTotal)
		ps := 0.0
		for i := lo; i < hi; i++ {
			ps += contrib[i]
		}
		sum += ps
	}
	est := sum / float64(g.sTotal)

	// Selectivity gradient: per-shard chunk partials (mass + d gradient
	// terms) merged in the same global chunk order.
	stride := g.d + 1
	gparts := make([][]float64, g.k)
	for k, sh := range g.shards {
		if sh.est == nil {
			continue
		}
		p := g.bufs.Get(parallel.Chunks(sh.est.Size()) * stride)
		if err := sh.est.GradientBatchPartials([]query.Range{q}, p); err != nil {
			return err
		}
		gparts[k] = p
	}
	msum := 0.0
	grad := make([]float64, g.d)
	for c := 0; c < nc; c++ {
		pr := gparts[c%g.k][(c/g.k)*stride:][:stride]
		msum += pr[0]
		for j := 0; j < g.d; j++ {
			grad[j] += pr[1+j]
		}
	}
	for _, p := range gparts {
		if p != nil {
			g.bufs.Put(p)
		}
	}
	inv := 1 / float64(g.sTotal)
	for j := range grad {
		grad[j] *= inv
	}
	g.tune.LossGradient(grad, msum*inv, actual)

	// Karma maintenance first (it consumes contributions computed under
	// the pre-step bandwidth), mirroring core.Feedback.
	if err := g.maint.KarmaPass(groupSlots{g}, g.tab, q, g.h, kernel.Gaussian{}, contrib, est, actual); err != nil {
		return err
	}

	return g.tune.Step(grad, append([]float64(nil), g.h...))
}

// groupSlots addresses the global sample by global index through the
// chunk-round-robin owner mapping, for sample maintenance. The caller holds
// g.mu.
type groupSlots struct{ g *Group }

func (s groupSlots) Len() int { return s.g.sTotal }

func (s groupSlots) Point(gi int) []float64 {
	k, li := s.g.owner(gi)
	est := s.g.shards[k].est
	if est == nil {
		return nil
	}
	d, flat := s.g.d, est.SampleFlat()
	if (li+1)*d > len(flat) {
		return nil
	}
	return flat[li*d : (li+1)*d]
}

// Replace swaps the point under the owning shard's lock, so an ANALYZE
// sample copy on that shard never observes a torn row.
func (s groupSlots) Replace(gi int, row []float64) error {
	k, li := s.g.owner(gi)
	sh := s.g.shards[k]
	if sh.est == nil {
		return nil
	}
	sh.mu.Lock()
	err := sh.est.ReplacePoint(li, row)
	sh.mu.Unlock()
	if err == nil {
		sh.replacements.Inc()
	}
	return err
}

// setBandwidthLocked makes h the group's bandwidth on every shard. Caller
// holds g.mu.
func (g *Group) setBandwidthLocked(h []float64) {
	copy(g.h, h)
	for _, sh := range g.shards {
		if sh.est == nil {
			continue
		}
		sh.mu.Lock()
		_ = sh.est.SetBandwidth(g.h)
		sh.mu.Unlock()
	}
}

// sampleFlatLocked reassembles the global row-major sample from the
// shards in global index order. Caller holds g.mu.
func (g *Group) sampleFlatLocked() []float64 {
	flat := make([]float64, g.sTotal*g.d)
	for k, sh := range g.shards {
		if sh.est != nil {
			g.toGlobal(flat, k, sh.est.SampleFlat(), g.d)
		}
	}
	return flat
}

// toGlobal copies shard k's per-point values (w per point, local index
// order) into dst at their global indices.
func (g *Group) toGlobal(dst []float64, k int, local []float64, w int) {
	for lc, lnc := 0, parallel.Chunks(len(local)/w); lc < lnc; lc++ {
		glo, ghi := parallel.ChunkBounds(lc*g.k+k, g.sTotal)
		llo := lc * parallel.ChunkSize
		copy(dst[glo*w:ghi*w], local[llo*w:(llo+ghi-glo)*w])
	}
}

// Reoptimize re-optimizes the bandwidth over the next shard in round-robin
// order — the sharded ANALYZE entry point.
func (g *Group) Reoptimize(fbs []query.Feedback) error {
	g.mu.Lock()
	i := g.anNext % g.k
	g.anNext++
	g.mu.Unlock()
	return g.AnalyzeShard(i, fbs)
}

// AnalyzeShard re-runs the batch bandwidth optimization (§3.4) over shard
// i's sample and installs the result group-wide. The sample is copied
// under shard i's lock alone and the optimization holds NO lock, so
// estimates (lock-free) and feedback on other shards proceed throughout;
// only the final install takes the group lock.
func (g *Group) AnalyzeShard(i int, fbs []query.Feedback) error {
	if i < 0 || i >= g.k {
		return fmt.Errorf("shard: analyze target %d out of range [0,%d)", i, g.k)
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.analyzes++
	n := g.analyzes
	g.mu.Unlock()

	sh := g.shards[i]
	sh.mu.Lock()
	var flat []float64
	if sh.est != nil {
		flat = append([]float64(nil), sh.est.SampleFlat()...)
	}
	sh.mu.Unlock()
	if len(flat) == 0 {
		return nil // empty shard: nothing to optimize
	}

	opts := bandwidth.OptimalConfig{
		Loss: g.lf,
		// A dedicated deterministic stream per run: the counted
		// maintenance RNG must not be perturbed by ANALYZE, or restored
		// groups would diverge from their checkpoint origin.
		Rand:    rand.New(rand.NewSource(g.cfg.Seed + 7919*int64(n))),
		Workers: g.cfg.Workers,
		Metrics: g.met.reg,
	}
	h, err := bandwidth.Optimal(flat, g.d, fbs, opts)
	if err != nil {
		// Degrade but keep serving under the pre-ANALYZE bandwidth.
		g.Degrade(core.Degraded, fmt.Sprintf("shard %d analyze failed: %v", i, err))
		return err
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	g.setBandwidthLocked(h)
	sh.analyzes.Inc()
	g.publishLocked()
	return nil
}

// ApplyMutations applies a batch of change-feed events in sequence order
// under g.mu with a single view-set republish at the end — the sharded
// counterpart of core.Server.ApplyMutations, driven by the ingestion
// bridge. Bit-identical to one-at-a-time apply at every K: only the
// publish frequency differs.
func (g *Group) ApplyMutations(ms []table.Mutation) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	changed, err := g.maint.Apply(groupSlots{g}, ms)
	if changed {
		g.publishLocked()
	}
	return err
}

// IngestCursor returns the highest change-feed sequence number applied so
// far; it is captured in group checkpoints for exactly-once resume.
func (g *Group) IngestCursor() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maint.Cursor
}

// DetachFeed removes the group's direct table subscription; a serving stack
// then routes the feed through ApplyMutations via the ingestion bridge.
func (g *Group) DetachFeed() { g.tab.Unsubscribe(g) }

// Detach is DetachFeed.
func (g *Group) Detach() { g.DetachFeed() }

// OnInsert implements table.Listener: the direct single-writer path.
// Serving stacks detach it and route the feed through internal/ingest.
func (g *Group) OnInsert(row []float64) {
	_ = g.ApplyMutations([]table.Mutation{{Kind: table.MutInsert, Row: row}})
}

// OnDelete implements table.Listener (direct single-writer path); see
// sample.Maintainer for the evict-and-resample semantics.
func (g *Group) OnDelete(row []float64) {
	_ = g.ApplyMutations([]table.Mutation{{Kind: table.MutDelete, Row: row}})
}

// OnUpdate implements table.Listener (direct single-writer path); see
// sample.Maintainer for the patch-in-place semantics.
func (g *Group) OnUpdate(oldRow, newRow []float64) {
	_ = g.ApplyMutations([]table.Mutation{{Kind: table.MutUpdate, Row: newRow, Pre: oldRow}})
}
