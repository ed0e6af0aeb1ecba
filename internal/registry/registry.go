// Package registry is the process-level model registry for one-process
// serving of many KDE selectivity models. The paper builds one estimator
// per (table, column subset) a query optimizer cares about (§6 runs dozens
// per workload); embedding them in one process means the models must share
// the scarce resources — one host worker pool, one (simulated) device, one
// metrics registry — while keeping their lifecycles independent: one
// model's multi-second ANALYZE must never stall another model's estimates.
//
// The registry owns that lifecycle. Models are admitted under a Key
// (table + ordered column subset), built once, and served through one
// model handle — a core.Server for an unsharded model, a shard.Group for a
// sharded one — so each model keeps the single-writer / lock-free-reader
// split of the serving layer, and cross-model isolation follows from each
// model having its own writer mutex. The registry adds:
//
//   - routing: Estimate/Feedback/Analyze take a Key and find the model;
//   - shared resources: every model runs on one parallel.Pool, one optional
//     gpu.Device, and one metrics.Registry, with per-model metric namespaces
//     ("model.<key>.", see Key.MetricPrefix) so instruments never collide;
//   - checkpoint rotation: periodic atomic checkpoints per model, keeping
//     the last K (internal/checkpoint's temp+rename keeps each file atomic);
//   - eviction and restore: LRU/idle eviction checkpoints the model, tears
//     down its server and metric namespace, and drops the memory; the next
//     Estimate for that key transparently restores from the newest
//     checkpoint (bit-identical continuation, see internal/core/persist.go).
//
// Lock order: Registry.mu guards only the key→entry map and is never held
// across model work. Each entry has a lifecycle mutex serializing
// build/restore/checkpoint/evict for that one model; estimates never take
// it (they go through the entry's atomic handle pointer, and a handle
// detached by a racing evict keeps serving its snapshot — see
// core.Server.Close and shard.Group.Close). Cross-entry operations (LRU enforcement, sweeps) take
// one entry mutex at a time, never two.
package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/gpu"
	"kdesel/internal/ingest"
	"kdesel/internal/join"
	"kdesel/internal/metrics"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/shard"
	"kdesel/internal/table"
)

// Typed errors for the routing layer.
var (
	// ErrUnknownModel is returned when a Key was never admitted.
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrDuplicateModel is returned by Admit for an already-admitted Key.
	ErrDuplicateModel = errors.New("registry: model already admitted")
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("registry: closed")
	// ErrAnalyzeQueueFull is returned by ScheduleAnalyze when the background
	// ANALYZE queue is saturated; the caller can retry or run Analyze
	// synchronously.
	ErrAnalyzeQueueFull = errors.New("registry: analyze queue full")
)

// Config tunes a Registry. The zero value is usable: no eviction, no
// periodic checkpoints, serial host execution, no instrumentation.
type Config struct {
	// MaxResident caps how many models are resident (built, in memory) at
	// once; admitting or restoring past the cap evicts the least-recently-
	// used other model. 0 means unlimited.
	MaxResident int
	// IdleAfter evicts a model that has served no traffic for this long
	// (enforced by Sweep / the background janitor). 0 disables idle eviction.
	IdleAfter time.Duration
	// CheckpointDir is where per-model checkpoint files live. Required for
	// any eviction (an evicted model must be restorable) and for
	// CheckpointEvery; empty disables both.
	CheckpointDir string
	// KeepCheckpoints is the per-model rotation depth: after writing a new
	// checkpoint, older files beyond the newest K are deleted (default 3).
	KeepCheckpoints int
	// CheckpointEvery periodically checkpoints every resident model
	// (enforced by Sweep / the background janitor). 0 disables.
	CheckpointEvery time.Duration
	// SweepEvery is the janitor cadence (default 250ms when any of
	// IdleAfter/CheckpointEvery is set; otherwise no janitor runs).
	// Negative disables the janitor; call Sweep manually.
	SweepEvery time.Duration
	// Workers sizes the one host worker pool shared by every model
	// (semantics of core.Config.Workers: 0/1 serial, n > 1 workers,
	// negative = NumCPU).
	Workers int
	// Device, when non-nil, is the one simulated device every admitted
	// model is placed on (models built with their own Config.Device keep
	// it; this is the default for models that do not specify one).
	Device *gpu.Device
	// Metrics is the shared process registry. Each model's instruments are
	// registered under its Key.MetricPrefix; the registry's own instruments
	// (registry.models_resident, registry.evictions, registry.restores,
	// registry.admissions, registry.analyze_queue_depth) live unprefixed.
	Metrics *metrics.Registry
	// AnalyzeQueue is the capacity of the background ANALYZE queue
	// (default 16).
	AnalyzeQueue int
}

func (c Config) keep() int {
	if c.KeepCheckpoints > 0 {
		return c.KeepCheckpoints
	}
	return 3
}

func (c Config) analyzeQueue() int {
	if c.AnalyzeQueue > 0 {
		return c.AnalyzeQueue
	}
	return 16
}

// model is the serving handle of one resident model: *core.Server for an
// unsharded model, *shard.Group for a sharded one. The registry never needs
// to know which. A handle is also the model's direct change-feed listener.
type model interface {
	table.Listener
	// EstimateDetail estimates q; degraded reports a sharded gather that
	// lost shards and renormalized over the survivors.
	EstimateDetail(ctx context.Context, q query.Range) (est float64, degraded bool, err error)
	Feedback(q query.Range, actual float64) error
	// Reoptimize is the ANALYZE step.
	Reoptimize(fbs []query.Feedback) error
	Checkpoint(path string) error
	ApplyMutations(ms []table.Mutation) error
	IngestCursor() uint64
	DetachFeed()
	Close()
	Health() core.Health
	Queries() int
}

// entry is one admitted model. cur is the serving handle, atomic because
// estimates load it lock-free while evict/restore swap it; mu serializes
// the lifecycle transitions (build, restore, checkpoint, evict) for this
// model only, so one model's slow transition never blocks another's.
type entry struct {
	key Key
	tab *table.Table
	// open builds the model (path "") or restores it from the checkpoint
	// at path. Admit and AdmitSharded differ only in the open they install.
	open func(path string) (model, error)

	mu  sync.Mutex
	cur atomic.Pointer[model] // nil while evicted

	lastUsed atomic.Int64 // UnixNano of last estimate/feedback
	lastCkpt atomic.Int64 // UnixNano of last checkpoint

	// ckpts is the rotation ring, oldest first; guarded by mu.
	ckpts   []string
	ckptSeq int

	// Continuous ingestion (ingest.go). bridge is atomic so Status and the
	// feedback recorder read it lock-free; ingOn marks that ingestion
	// follows the model across evict/restore; ingCfg is written under mu
	// before the bridge exists and read-only afterwards. fbBuf is the
	// bounded ring of recent feedback for drift-triggered ANALYZE.
	ingOn  atomic.Bool
	ingCfg IngestOptions
	bridge atomic.Pointer[ingest.Bridge]
	fbMu   sync.Mutex
	fbBuf  []query.Feedback
	fbNext int
}

// current returns the live handle, or nil while the model is evicted.
func (e *entry) current() model {
	if p := e.cur.Load(); p != nil {
		return *p
	}
	return nil
}

// install publishes m as the live handle; caller holds e.mu.
func (e *entry) install(m model) {
	e.cur.Store(&m)
	e.touch()
}

func (e *entry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// resident reports whether the entry currently holds a live serving handle.
func (e *entry) resident() bool { return e.cur.Load() != nil }

// Registry routes per-model operations to the right model handle and owns
// admission, checkpoint rotation, eviction, and restore. Safe for
// concurrent use. Construct with New.
type Registry struct {
	cfg  Config
	pool *parallel.Pool
	met  *metrics.Registry

	mu     sync.Mutex
	models map[string]*entry
	closed bool

	analyzeCh chan analyzeJob
	stop      chan struct{}
	wg        sync.WaitGroup

	admissions    *metrics.Counter
	evictions     *metrics.Counter
	restores      *metrics.Counter
	analyzes      *metrics.Counter
	driftAnalyzes *metrics.Counter
}

type analyzeJob struct {
	key Key
	fbs []query.Feedback
}

// New builds a registry, starts the single background ANALYZE worker, and
// (when the config calls for it) the janitor that drives idle eviction and
// periodic checkpoints.
func New(cfg Config) *Registry {
	if cfg.CheckpointDir != "" {
		// Best effort: a failure surfaces as an error from the first
		// checkpoint write, with the path in it, not as a panic here.
		_ = os.MkdirAll(cfg.CheckpointDir, 0o755)
	}
	r := &Registry{
		cfg:       cfg,
		pool:      parallel.PoolFor(cfg.Workers),
		met:       cfg.Metrics,
		models:    map[string]*entry{},
		analyzeCh: make(chan analyzeJob, cfg.analyzeQueue()),
		stop:      make(chan struct{}),
	}
	r.pool.Instrument(r.met)
	r.admissions = r.met.Counter("registry.admissions")
	r.evictions = r.met.Counter("registry.evictions")
	r.restores = r.met.Counter("registry.restores")
	r.analyzes = r.met.Counter("registry.analyzes")
	r.driftAnalyzes = r.met.Counter("registry.drift_analyzes")
	r.met.RegisterGaugeFunc("registry.models_resident", func() float64 {
		return float64(r.Resident())
	})
	r.met.RegisterGaugeFunc("registry.models_admitted", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.models))
	})
	r.met.RegisterGaugeFunc("registry.analyze_queue_depth", func() float64 {
		return float64(len(r.analyzeCh))
	})

	r.wg.Add(1)
	go r.analyzeWorker()

	sweep := cfg.SweepEvery
	if sweep == 0 && (cfg.IdleAfter > 0 || cfg.CheckpointEvery > 0) {
		sweep = 250 * time.Millisecond
	}
	if sweep > 0 {
		r.wg.Add(1)
		go r.janitor(sweep)
	}
	return r
}

// Admit builds a model for key over tab and makes it resident. The build
// runs under the model's own lifecycle lock — admitting a large model never
// blocks traffic to other models. buildCfg.Metrics and buildCfg.Workers are
// overridden by the registry's shared resources (per-model metric prefix,
// shared pool); buildCfg.Device defaults to the registry's shared device.
func (r *Registry) Admit(key Key, tab *table.Table, buildCfg core.Config, serveCfg core.ServeConfig) error {
	return r.admit(key, tab, func(path string) (model, error) {
		// Registries and pools are not persisted state: a restored model is
		// re-instrumented under the same metric namespace and rewired to
		// the shared pool, exactly like a built one.
		view := r.met.WithPrefix(key.MetricPrefix())
		var est *core.Estimator
		var err error
		if path == "" {
			cfg := buildCfg
			cfg.Metrics = view
			cfg.Workers = 0 // shared pool installed below
			if cfg.Device == nil {
				cfg.Device = r.cfg.Device
			}
			est, err = core.Build(tab, cfg)
		} else if est, err = core.RestoreCheckpoint(path, tab, r.cfg.Device); err == nil {
			est.Instrument(view)
		}
		if err != nil {
			return nil, err
		}
		if r.pool != nil {
			est.SetPool(r.pool)
		}
		sc := serveCfg
		sc.Metrics = view
		sc.MetricPrefix = "" // the view already carries the model prefix
		return core.NewServer(est, sc), nil
	})
}

// AdmitSharded admits a sharded model: the sample is partitioned across
// shards shard estimators (internal/shard) whose scatter/gather serving
// is bit-identical to the single-shard path at any shard count. The
// build-config fields that shape the model (SampleSize, Seed, Loss,
// Learner, Karma, Faults) carry over; Metrics and Workers are overridden
// by the registry's shared resources exactly as in Admit, and
// serveCfg.Precision (Float64 or Float32) selects every shard's serving
// tier. Sharded models
// get the same lifecycle as plain ones: per-model metric namespace (plus
// shard<i>. sub-namespaces), checkpoint rotation (one atomic multi-frame
// file covering all shards), eviction, and restore-on-demand. They serve
// without the request coalescer.
func (r *Registry) AdmitSharded(key Key, tab *table.Table, buildCfg core.Config, shards int, serveCfg core.ServeConfig) error {
	cfg := shard.Config{
		Shards:     shards,
		SampleSize: buildCfg.SampleSize,
		Seed:       buildCfg.Seed,
		Loss:       buildCfg.Loss,
		Learner:    buildCfg.Learner,
		Karma:      buildCfg.Karma,
		Precision:  serveCfg.Precision,
		Workers:    r.cfg.Workers,
		Pool:       r.pool,
		Metrics:    r.met.WithPrefix(key.MetricPrefix()),
		Faults:     buildCfg.Faults,
	}
	return r.admit(key, tab, func(path string) (model, error) {
		var g *shard.Group
		var err error
		if path == "" {
			g, err = shard.Build(tab, cfg)
		} else {
			g, err = shard.Restore(path, tab, cfg)
		}
		if err != nil {
			return nil, err
		}
		return g, nil
	})
}

// admit validates and registers a new entry for key, then builds its model
// with open under the entry's lifecycle lock.
func (r *Registry) admit(key Key, tab *table.Table, open func(path string) (model, error)) error {
	if len(key.Columns) == 0 {
		return fmt.Errorf("registry: key %q has no columns", key.Table)
	}
	if tab == nil {
		return errors.New("registry: nil table")
	}
	if tab.Dims() != len(key.Columns) {
		return fmt.Errorf("registry: key %v names %d columns but table has %d",
			key, len(key.Columns), tab.Dims())
	}
	ent := &entry{key: key, tab: tab, open: open}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, dup := r.models[key.String()]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrDuplicateModel, key)
	}
	r.models[key.String()] = ent
	r.mu.Unlock()

	ent.mu.Lock()
	m, err := open("")
	if err == nil {
		ent.install(m)
	}
	ent.mu.Unlock()
	if err != nil {
		r.mu.Lock()
		delete(r.models, key.String())
		r.mu.Unlock()
		return err
	}
	r.admissions.Inc()
	r.enforceResidency(key)
	return nil
}

// AdmitJoin admits a join model: it samples the fkTab ⋈ pkTab join result
// (join.SampleResult), materializes the joined rows as a synthetic table,
// and admits a normal model over it — so join models get the same serving,
// checkpointing, eviction, and metric namespace as single-table models. key
// must cover the combined attribute order (FK columns then PK columns).
func (r *Registry) AdmitJoin(key Key, fkTab, pkTab *table.Table, fkCol, pkCol, n int, seed int64,
	buildCfg core.Config, serveCfg core.ServeConfig) error {
	if fkTab == nil || pkTab == nil {
		return errors.New("registry: nil table")
	}
	if want := fkTab.Dims() + pkTab.Dims(); len(key.Columns) != want {
		return fmt.Errorf("registry: join key %v names %d columns but join result has %d",
			key, len(key.Columns), want)
	}
	rows, err := join.SampleResult(fkTab, pkTab, fkCol, pkCol, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	jt, err := table.New(len(rows[0]))
	if err != nil {
		return err
	}
	if err := jt.InsertMany(rows); err != nil {
		return err
	}
	return r.Admit(key, jt, buildCfg, serveCfg)
}

// entryFor resolves a key; the registry lock is held only for the map read.
func (r *Registry) entryFor(key Key) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	ent, ok := r.models[key.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, key)
	}
	return ent, nil
}

// serving returns ent's live handle, restoring it from the newest
// checkpoint when the model was evicted. The fast path is one atomic load.
func (r *Registry) serving(ent *entry) (model, error) {
	if m := ent.current(); m != nil {
		return m, nil
	}
	ent.mu.Lock()
	err := r.residentLocked(ent)
	m := ent.current()
	ent.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.enforceResidency(ent.key)
	return m, nil
}

// residentLocked ensures ent has a live serving handle, restoring it from
// the newest checkpoint when needed, and re-attaches ingestion at the
// restored cursor for a model that had it; caller holds ent.mu.
// Restoration is bit-identical continuation (core/persist.go,
// shard/persist.go).
func (r *Registry) residentLocked(ent *entry) error {
	if ent.resident() {
		return nil
	}
	if len(ent.ckpts) == 0 {
		return fmt.Errorf("registry: model %v is not resident and has no checkpoint", ent.key)
	}
	m, err := ent.open(ent.ckpts[len(ent.ckpts)-1])
	if err != nil {
		return fmt.Errorf("registry: restore %v: %w", ent.key, err)
	}
	ent.install(m)
	r.restores.Inc()
	if ent.ingOn.Load() {
		return r.attachIngestLocked(ent)
	}
	return nil
}

// Estimate routes q to key's model, restoring it first if it was evicted.
// Estimates are served exactly as by the model's handle — coalesced and
// lock-free from the model snapshot for an unsharded model — so an ANALYZE
// or checkpoint on any model (this one included) does not block them.
func (r *Registry) Estimate(key Key, q query.Range) (float64, error) {
	est, _, err := r.EstimateContextDetail(context.Background(), key, q)
	return est, err
}

// EstimateContext is Estimate with deadline/cancellation propagation: the
// context threads through core.Server.EstimateContext into the model's
// coalescer, so a networked caller that gives up unblocks immediately and
// its abandoned batch slot is reclaimed. Restore-on-demand of an evicted
// model is not cancellable (the restored model outlives the request that
// triggered it); the context applies from routing onward.
func (r *Registry) EstimateContext(ctx context.Context, key Key, q query.Range) (float64, error) {
	est, _, err := r.EstimateContextDetail(ctx, key, q)
	return est, err
}

// EstimateContextDetail is EstimateContext plus the degraded flag: true
// when a sharded model lost shards during the scatter and served the
// renormalized survivor estimate. Unsharded models never degrade a single
// request this way and always report false.
func (r *Registry) EstimateContextDetail(ctx context.Context, key Key, q query.Range) (float64, bool, error) {
	ent, err := r.entryFor(key)
	if err != nil {
		return 0, false, err
	}
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	m, err := r.serving(ent)
	if err != nil {
		return 0, false, err
	}
	ent.touch()
	return m.EstimateDetail(ctx, q)
}

// Feedback routes an observed true selectivity to key's model. A feedback
// racing that model's eviction may be dropped (the serving handle is gone
// by the time it would apply): feedback is advisory tuning signal, and
// blocking it on lifecycle transitions is not worth serializing estimates.
func (r *Registry) Feedback(key Key, q query.Range, actual float64) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	ent.recordFeedback(q, actual)
	m, err := r.serving(ent)
	if err != nil {
		return err
	}
	ent.touch()
	return m.Feedback(q, actual)
}

// Analyze synchronously re-optimizes key's model over fbs (the ANALYZE
// step). It runs under that model's writer lock only (a sharded model
// optimizes over one shard's sample, round-robin): estimates for the same
// model keep serving the pre-ANALYZE snapshot, and other models are
// entirely unaffected.
func (r *Registry) Analyze(key Key, fbs []query.Feedback) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	m, err := r.serving(ent)
	if err != nil {
		return err
	}
	err = m.Reoptimize(fbs)
	if err == nil {
		r.analyzes.Inc()
	}
	return err
}

// ScheduleAnalyze enqueues an ANALYZE for the single background worker,
// returning immediately. One worker (not one per model) is deliberate:
// ANALYZE is the most compute-hungry operation in the process, and running
// several at once would let background tuning starve the estimate path.
// Queue depth is exported as registry.analyze_queue_depth.
func (r *Registry) ScheduleAnalyze(key Key, fbs []query.Feedback) error {
	if _, err := r.entryFor(key); err != nil {
		return err
	}
	select {
	case r.analyzeCh <- analyzeJob{key: key, fbs: fbs}:
		return nil
	default:
		return ErrAnalyzeQueueFull
	}
}

func (r *Registry) analyzeWorker() {
	defer r.wg.Done()
	for {
		select {
		case job := <-r.analyzeCh:
			// Best-effort: the model may have been removed since scheduling.
			_ = r.Analyze(job.key, job.fbs)
		case <-r.stop:
			return
		}
	}
}

// CheckpointNow atomically checkpoints key's model into its rotation ring,
// pruning files beyond Config.KeepCheckpoints. Requires CheckpointDir.
func (r *Registry) CheckpointNow(key Key) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	m := ent.current()
	if m == nil {
		return nil // evicted: its checkpoint is already the latest state
	}
	return r.checkpointLocked(ent, m)
}

// checkpointLocked writes one rotation checkpoint (a sharded group writes
// one multi-frame file covering all its shards atomically); caller holds
// ent.mu.
func (r *Registry) checkpointLocked(ent *entry, m model) error {
	if r.cfg.CheckpointDir == "" {
		return errors.New("registry: no CheckpointDir configured")
	}
	ent.ckptSeq++
	path := filepath.Join(r.cfg.CheckpointDir,
		fmt.Sprintf("%s-%06d.ckpt", ent.key.fileStem(), ent.ckptSeq))
	if err := m.Checkpoint(path); err != nil {
		return err
	}
	ent.ckpts = append(ent.ckpts, path)
	for len(ent.ckpts) > r.cfg.keep() {
		os.Remove(ent.ckpts[0])
		ent.ckpts = ent.ckpts[1:]
	}
	ent.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// Evict checkpoints key's model, tears down its server and its metric
// namespace, and releases the memory. The next Estimate (or Feedback)
// for the key transparently restores from that checkpoint. Estimates
// holding the old serving handle finish normally — a closed server still
// serves from its snapshot (core.Server.Close) — and writers racing the
// checkpoint drain under the model's writer lock before the file is cut.
// Evicting a non-resident model is a no-op.
func (r *Registry) Evict(key Key) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	return r.evict(ent)
}

func (r *Registry) evict(ent *entry) error {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	// Flush the ingestion ring into the model before the checkpoint is cut:
	// the frame must capture every buffered mutation and the matching feed
	// cursor. Restore-on-demand re-attaches a fresh bridge at that cursor.
	ent.closeIngestLocked()
	m := ent.current()
	if m == nil {
		return nil
	}
	// Checkpoint before detaching: restore-on-next-estimate (which blocks on
	// ent.mu until this returns) must see the final pre-eviction state.
	if err := r.checkpointLocked(ent, m); err != nil {
		return fmt.Errorf("registry: evict %v: %w", ent.key, err)
	}
	r.teardownLocked(ent, m)
	r.evictions.Inc()
	return nil
}

// teardownLocked detaches ent's live handle m: no more change-feed
// callbacks, no coalescer, and no gauge funcs under the model's metric
// namespace — core.health, core.snapshot_age_seconds, bandwidth drift, the
// serve gauges, the shard<i>.* gauges nested under the model prefix.
// Counters and histograms stay (monotonic history survives eviction); a
// restore re-registers the gauge funcs against the new instances. Caller
// holds ent.mu.
func (r *Registry) teardownLocked(ent *entry, m model) {
	ent.cur.Store(nil)
	m.DetachFeed()
	m.Close()
	r.met.UnregisterGaugeFuncsPrefix(ent.key.MetricPrefix())
}

// enforceResidency evicts least-recently-used models until the resident
// count fits MaxResident, never evicting keep (the model that just became
// resident). Runs outside any entry lock; victims are locked one at a time.
func (r *Registry) enforceResidency(keep Key) {
	if r.cfg.MaxResident <= 0 {
		return
	}
	for {
		var victim *entry
		resident := 0
		r.mu.Lock()
		for _, ent := range r.models {
			if !ent.resident() {
				continue
			}
			resident++
			if ent.key.String() == keep.String() {
				continue
			}
			if victim == nil || ent.lastUsed.Load() < victim.lastUsed.Load() {
				victim = ent
			}
		}
		r.mu.Unlock()
		if resident <= r.cfg.MaxResident || victim == nil {
			return
		}
		_ = r.evict(victim)
	}
}

// Sweep runs one janitor pass: idle models are evicted and stale resident
// models are checkpointed, per Config.IdleAfter and Config.CheckpointEvery.
// The background janitor calls this periodically; tests call it directly
// for deterministic lifecycle transitions.
func (r *Registry) Sweep() {
	now := time.Now().UnixNano()
	r.mu.Lock()
	ents := make([]*entry, 0, len(r.models))
	for _, ent := range r.models {
		ents = append(ents, ent)
	}
	r.mu.Unlock()
	for _, ent := range ents {
		if !ent.resident() {
			continue
		}
		if r.cfg.IdleAfter > 0 && now-ent.lastUsed.Load() > int64(r.cfg.IdleAfter) {
			_ = r.evict(ent)
			continue
		}
		if r.cfg.CheckpointEvery > 0 && now-ent.lastCkpt.Load() > int64(r.cfg.CheckpointEvery) {
			ent.mu.Lock()
			if m := ent.current(); m != nil {
				_ = r.checkpointLocked(ent, m)
			}
			ent.mu.Unlock()
		}
	}
}

func (r *Registry) janitor(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Sweep()
		case <-r.stop:
			return
		}
	}
}

// Keys returns every admitted key in sorted canonical order.
func (r *Registry) Keys() []Key {
	r.mu.Lock()
	keys := make([]Key, 0, len(r.models))
	for _, ent := range r.models {
		keys = append(keys, ent.key)
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// ModelStatus is one model's serving state as reported by Status.
type ModelStatus struct {
	// Key identifies the model.
	Key Key
	// Resident reports whether the model is in memory; a non-resident model
	// still serves (restore-on-demand) but its Health/Queries are unknown
	// without paying the restore, so they are zero.
	Resident bool
	// Health is the degradation-ladder state (core.Healthy/Degraded/
	// Fallback) of a resident model.
	Health core.Health
	// Queries is the number of estimates a resident model has served.
	Queries int
	// Shards is the shard count of a sharded model (0 for unsharded).
	Shards int
	// Ingesting reports whether a continuous-ingestion bridge is attached.
	Ingesting bool
	// IngestLag is the bridge's buffered-but-unapplied mutation count,
	// bounded by the configured ring size; 0 when not ingesting.
	IngestLag int
}

// Status reports every admitted model's serving state, sorted by key, for
// readiness probes and operator endpoints. Reads are lock-free per model
// (atomic server pointer + atomic health), so Status never blocks behind an
// ANALYZE, restore, or eviction in progress — a model mid-transition just
// reports non-resident.
func (r *Registry) Status() []ModelStatus {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.models))
	for _, ent := range r.models {
		entries = append(entries, ent)
	}
	r.mu.Unlock()
	out := make([]ModelStatus, 0, len(entries))
	for _, ent := range entries {
		st := ModelStatus{Key: ent.key}
		if m := ent.current(); m != nil {
			st.Resident = true
			st.Health = m.Health()
			st.Queries = m.Queries()
			if g, ok := m.(interface{ Shards() int }); ok {
				st.Shards = g.Shards()
			}
		}
		if br := ent.bridge.Load(); br != nil {
			st.Ingesting = true
			st.IngestLag = br.Depth()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Resident returns how many models are currently resident (in memory).
func (r *Registry) Resident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ent := range r.models {
		if ent.resident() {
			n++
		}
	}
	return n
}

// IsResident reports whether key's model is currently in memory (false
// also for unknown keys).
func (r *Registry) IsResident(key Key) bool {
	r.mu.Lock()
	ent, ok := r.models[key.String()]
	r.mu.Unlock()
	return ok && ent.resident()
}

// Table returns the table backing key's model (for truth computation and
// workload generation), or nil for unknown keys.
func (r *Registry) Table(key Key) *table.Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ent, ok := r.models[key.String()]; ok {
		return ent.tab
	}
	return nil
}

// Close stops the background workers, checkpoints every resident model
// (when a CheckpointDir is configured), closes their servers, and
// unregisters every instrument namespace the registry created. Operations
// after Close return ErrClosed.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	ents := make([]*entry, 0, len(r.models))
	for _, ent := range r.models {
		ents = append(ents, ent)
	}
	r.mu.Unlock()

	close(r.stop)
	r.wg.Wait()

	for _, ent := range ents {
		ent.mu.Lock()
		// Drain the ingestion ring into the model before the final
		// checkpoint, exactly as eviction does.
		ent.closeIngestLocked()
		if m := ent.current(); m != nil {
			if r.cfg.CheckpointDir != "" {
				_ = r.checkpointLocked(ent, m)
			}
			r.teardownLocked(ent, m)
		}
		ent.mu.Unlock()
	}
	r.met.UnregisterGaugeFuncsPrefix("registry.")
}

// Project materializes the ordered column subset cols of tab as a new
// table — the canonical way to derive the per-model tables a registry
// serves from one base table. Rows are copied; later inserts into tab do
// not propagate (per-model samples are maintained by feedback, not by
// shared storage, matching the paper's per-estimator sample ownership).
func Project(tab *table.Table, cols []int) (*table.Table, error) {
	if tab == nil {
		return nil, errors.New("registry: nil table")
	}
	if len(cols) == 0 {
		return nil, errors.New("registry: empty column subset")
	}
	for _, c := range cols {
		if c < 0 || c >= tab.Dims() {
			return nil, fmt.Errorf("registry: column %d out of range [0,%d)", c, tab.Dims())
		}
	}
	out, err := table.New(len(cols))
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(cols))
	for i := 0; i < tab.Len(); i++ {
		src := tab.Row(i)
		for j, c := range cols {
			row[j] = src[c]
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
