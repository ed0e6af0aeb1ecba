// Package kdesel is a self-tuning, (simulated-)GPU-accelerated kernel
// density estimator for multidimensional range selectivity estimation — a
// from-scratch Go reproduction of Heimel, Kiefer & Markl, "Self-Tuning,
// GPU-Accelerated Kernel Density Models for Multidimensional Selectivity
// Estimation" (SIGMOD 2015).
//
// The package is a thin facade over the implementation packages under
// internal/; it re-exports everything a downstream user needs:
//
//	tab, _ := kdesel.NewTable(2)
//	// ... load rows ...
//	est, _ := kdesel.Build(tab, kdesel.Config{Mode: kdesel.Adaptive})
//	sel, _ := est.Estimate(kdesel.NewRange([]float64{0, 0}, []float64{1, 1}))
//	// ... run the query, observe the true selectivity ...
//	_ = est.Feedback(q, actual)
//
// See README.md for a walkthrough and DESIGN.md for the architecture and
// the per-experiment index.
package kdesel

import (
	"io"
	"math/rand"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/gpu"
	"kdesel/internal/httpclient"
	"kdesel/internal/httpserve"
	"kdesel/internal/ingest"
	"kdesel/internal/join"
	"kdesel/internal/kde"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/shard"
	"kdesel/internal/table"
)

// Mode selects the bandwidth strategy of an estimator.
type Mode = core.Mode

// The four estimator modes of the paper's evaluation (§6.1.1).
const (
	// Heuristic keeps the Scott's-rule bandwidth.
	Heuristic = core.Heuristic
	// SCV selects the bandwidth by smoothed cross-validation.
	SCV = core.SCV
	// Batch optimizes the bandwidth over training feedback (§3).
	Batch = core.Batch
	// Adaptive continuously tunes bandwidth and sample from feedback (§4).
	Adaptive = core.Adaptive
)

// Config assembles an estimator; see core.Config for all fields.
type Config = core.Config

// Estimator is the self-tuning KDE selectivity estimator.
type Estimator = core.Estimator

// Table is the in-memory relation estimators are built over.
type Table = table.Table

// Range is a hyper-rectangular range predicate.
type Range = query.Range

// Feedback pairs a query with its observed true selectivity.
type Feedback = query.Feedback

// Device is a simulated compute device for GPU-accelerated estimation.
type Device = gpu.Device

// DeviceProfile describes a simulated device's performance characteristics.
type DeviceProfile = gpu.Profile

// NewTable returns an empty relation with d real-valued attributes.
func NewTable(d int) (*Table, error) { return table.New(d) }

// NewRange builds a range query from copied bounds.
func NewRange(lo, hi []float64) Range { return query.NewRange(lo, hi) }

// Build constructs an estimator over a table (the ANALYZE step).
func Build(tab *Table, cfg Config) (*Estimator, error) { return core.Build(tab, cfg) }

// NewDevice creates a simulated device from a profile.
func NewDevice(p DeviceProfile) (*Device, error) { return gpu.NewDevice(p) }

// GPUProfile is the paper's mid-range discrete GPU (NVIDIA GTX 460).
func GPUProfile() DeviceProfile { return gpu.GTX460() }

// CPUProfile is the paper's quad-core host CPU driven through OpenCL.
func CPUProfile() DeviceProfile { return gpu.XeonE5620() }

// Load reconstructs an estimator previously serialized with
// Estimator.Save, bound to tab and optionally placed on dev.
func Load(r io.Reader, tab *Table, dev *Device) (*Estimator, error) {
	return core.Load(r, tab, dev)
}

// Health is the estimator's degradation state; see core.Health for the
// ladder (GPU → host-parallel → serial execution, plus Scott's-rule model
// resets) and the monotonicity contract.
type Health = core.Health

// The three health states, ordered by severity.
const (
	// Healthy: no degradation since construction.
	Healthy = core.Healthy
	// Degraded: at least one recovery action fired (device fallback,
	// bandwidth reset, recovered panic); estimates remain fully served.
	Degraded = core.Degraded
	// Fallback: execution dropped to the most conservative rung (serial
	// host); the last resort short of failing.
	Fallback = core.Fallback
)

// Typed validation errors returned at the Estimate/Feedback boundary.
var (
	// ErrInvalidQuery marks a malformed range (NaN/Inf bounds, inverted
	// ranges, dimension mismatch); match with errors.Is.
	ErrInvalidQuery = core.ErrInvalidQuery
	// ErrInvalidFeedback marks a non-finite observed selectivity.
	ErrInvalidFeedback = core.ErrInvalidFeedback
)

// Server wraps an Estimator for concurrent use with a single-writer /
// lock-free-reader split: Estimate calls serve from an immutable model
// snapshot (and coalesce into shared fused traversals, see internal/serve),
// while Feedback, Reoptimize (ANALYZE), and Checkpoint mutate under the
// writer lock and publish a fresh snapshot on completion — tuning never
// blocks estimates. All access to the wrapped estimator — including
// Feedback and Checkpoint — must go through the Server.
type Server = core.Server

// ServeConfig tunes a Server's request coalescing; the zero value enables
// batching with 64-query batches. The coalescer never waits for
// batch-mates: a lone request is evaluated at once, and a batch is what
// queued while the previous one ran. MaxBatch ≤ 1 disables coalescing;
// SerializeEstimates restores the pre-snapshot everything-behind-one-mutex
// baseline.
type ServeConfig = core.ServeConfig

// NewServer wraps est for concurrent serving.
func NewServer(est *Estimator, cfg ServeConfig) *Server { return core.NewServer(est, cfg) }

// ErfMode selects the erf implementation used by every Gaussian kernel
// evaluation: ErfExact (the default, math.Erf) or ErfFast (a polynomial
// approximation with |error| ≤ 1e-7, roughly 4× faster).
type ErfMode = mathx.Mode

// The two erf implementations; switch with SetErfMode.
const (
	// ErfExact routes through math.Erf (bit-identical to the stdlib).
	ErfExact = mathx.Exact
	// ErfFast routes through the polynomial approximation.
	ErfFast = mathx.Fast
)

// SetErfMode switches the process-global erf implementation. The switch is
// atomic and safe to call concurrently with estimation, but an estimate in
// flight during the switch may evaluate some dimensions under each mode —
// switch at a quiet moment if bit-reproducibility matters.
func SetErfMode(m ErfMode) { mathx.SetMode(m) }

// ParseErfMode parses "exact" or "fast" (the CLI flag grammar); ok is
// false for anything else.
func ParseErfMode(s string) (ErfMode, bool) { return mathx.ParseMode(s) }

// Precision selects the numeric tier estimates are served from; set it on
// ServeConfig.Precision or switch at runtime with Server.SetPrecision.
// The reduced tier, PrecisionFloat32, is verified against its error
// contract before it is ever served (over contract it falls back to
// PrecisionFloat64 and counts a core.precision_fallbacks event), and the
// active tier is pinned per snapshot — it never changes mid-estimate.
type Precision = mathx.Precision

// The serving precision tiers; parse flag values with ParsePrecision.
const (
	// PrecisionFloat64 is the exact default path (8 bytes per sample value).
	PrecisionFloat64 = mathx.Float64
	// PrecisionFloat32 streams float32 columns (4 bytes per value) with a
	// ≤ 1e-5 relative error contract.
	PrecisionFloat32 = mathx.Float32
)

// ParsePrecision parses "float64" or "float32" (the CLI flag grammar; empty
// means float64); ok is false for anything else.
func ParsePrecision(s string) (Precision, bool) { return mathx.ParsePrecision(s) }

// RestoreCheckpoint reconstructs an estimator from an atomic, CRC-checked
// checkpoint written by Estimator.Checkpoint, bound to tab and optionally
// placed on dev. Unlike Save/Load, a checkpoint also carries the learner
// accumulators, reservoir position, and random stream, so the restored
// estimator continues bit-identically to the original.
func RestoreCheckpoint(path string, tab *Table, dev *Device) (*Estimator, error) {
	return core.RestoreCheckpoint(path, tab, dev)
}

// FaultInjector is a deterministic, schedule-driven fault injector for
// exercising the degradation ladder; pass one via Config.Faults or
// Device.SetFaultInjector. A nil injector is a full no-op.
type FaultInjector = fault.Injector

// FaultSchedule maps fault points to firing rules; see ParseFaultSchedule
// for the textual grammar.
type FaultSchedule = fault.Schedule

// NewFaultInjector returns an injector firing per the schedule, with
// probabilistic clauses driven by seed.
func NewFaultInjector(seed int64, s FaultSchedule) *FaultInjector { return fault.New(seed, s) }

// ParseFaultSchedule parses specs like "transfer:3,5;gradient:every=7,limit=3"
// (points: transfer, launch, optimizer, gradient, checkpoint).
func ParseFaultSchedule(spec string) (FaultSchedule, error) { return fault.ParseSchedule(spec) }

// FaultInjectorFromEnv builds an injector from the KDESEL_FAULTS /
// KDESEL_FAULT_SEED environment variables; nil when unset.
func FaultInjectorFromEnv() (*FaultInjector, error) { return fault.FromEnv() }

// JoinEstimator answers range queries over the combined attribute space of
// a key–foreign-key join (paper future work §8).
type JoinEstimator = join.Estimator

// BuildJoinEstimator samples the fkTab ⋈ pkTab join result (fkTab's column
// fkCol references pkTab's unique column pkCol) and fits a KDE over the
// combined attributes.
func BuildJoinEstimator(fkTab, pkTab *Table, fkCol, pkCol, sampleSize int, rng *rand.Rand) (*JoinEstimator, error) {
	return join.BuildEstimator(fkTab, pkTab, fkCol, pkCol, sampleSize, rng)
}

// BandJoinSelectivity estimates the selectivity of the band join
// |R.a − S.b| ≤ eps over R × S from two Gaussian KDE models, using the
// closed-form joint integral (paper future work §8).
func BandJoinSelectivity(r, s *kde.Estimator, aCol, bCol int, eps float64) (float64, error) {
	return join.BandSelectivity(r, s, aCol, bCol, eps)
}

// Registry is the process-level model registry for one-process serving of
// many models: admission under a (table, ordered column subset) key,
// routing of Estimate/Feedback/Analyze to the right Server, shared worker
// pool / device / metrics registry with per-model metric namespaces,
// periodic checkpoint rotation, and LRU/idle eviction with transparent
// restore on the next estimate.
type Registry = registry.Registry

// RegistryConfig tunes a Registry; see registry.Config for all fields.
type RegistryConfig = registry.Config

// ModelKey identifies one model in a Registry: a table name plus the
// ordered column subset it covers, canonically rendered "table(c0,c1)".
type ModelKey = registry.Key

// NewRegistry builds a model registry and starts its background ANALYZE
// worker and janitor.
func NewRegistry(cfg RegistryConfig) *Registry { return registry.New(cfg) }

// NewModelKey builds a model key over table's given columns.
func NewModelKey(table string, cols ...int) ModelKey { return registry.NewKey(table, cols...) }

// ParseModelKey parses the canonical "table(c0,c1,...)" form.
func ParseModelKey(s string) (ModelKey, error) { return registry.ParseKey(s) }

// ProjectTable materializes an ordered column subset of tab as a new table
// — the canonical way to derive per-model tables for a Registry from one
// base table.
func ProjectTable(tab *Table, cols []int) (*Table, error) { return registry.Project(tab, cols) }

// Registry routing errors; match with errors.Is.
var (
	// ErrUnknownModel: the key was never admitted.
	ErrUnknownModel = registry.ErrUnknownModel
	// ErrDuplicateModel: Admit of an already-admitted key.
	ErrDuplicateModel = registry.ErrDuplicateModel
)

// ShardedGroup is a scale-out estimator: the reservoir sample is
// partitioned across K shard estimators (sample chunk c lives on shard
// c%K), estimates scatter to every shard and gather the per-chunk partial
// sums in global chunk order, so results are bit-identical (Float64bits)
// to a single-shard estimator at any K and worker count. ANALYZE optimizes
// the bandwidth over one shard's sample, copied under that shard's lock
// alone, and installs the result as one uniform bandwidth on every shard;
// serving traffic never blocks on the optimization. A Registry admits
// these via AdmitSharded.
type ShardedGroup = shard.Group

// ShardConfig tunes a ShardedGroup; see shard.Config for all fields.
type ShardConfig = shard.Config

// NewShardedGroup builds a K-shard group over tab's sample.
func NewShardedGroup(tab *Table, cfg ShardConfig) (*ShardedGroup, error) {
	return shard.Build(tab, cfg)
}

// HTTPServer is the networked serving frontend: an HTTP/JSON facade over a
// Registry with per-request deadline propagation, bounded admission (load
// shedding with 429 + Retry-After), graceful drain, health/readiness
// probes, and a /metrics snapshot endpoint. It implements http.Handler.
type HTTPServer = httpserve.Server

// HTTPConfig tunes an HTTPServer; see httpserve.Config for all fields.
type HTTPConfig = httpserve.Config

// NewHTTPServer builds the HTTP frontend over cfg.Registry.
func NewHTTPServer(cfg HTTPConfig) (*HTTPServer, error) { return httpserve.New(cfg) }

// HTTPClient is the Go client for the wire protocol. It retries idempotent
// estimates (with capped exponential backoff, jitter, and Retry-After
// hints) and never retries feedback or ANALYZE — a duplicated feedback
// delivery would double its weight in the learner.
type HTTPClient = httpclient.Client

// HTTPClientConfig tunes an HTTPClient; see httpclient.Config.
type HTTPClientConfig = httpclient.Config

// NewHTTPClient builds a client for the frontend at cfg.BaseURL.
func NewHTTPClient(cfg HTTPClientConfig) (*HTTPClient, error) { return httpclient.New(cfg) }

// Wire-protocol error classes; match with errors.Is against HTTPClient
// errors.
var (
	// ErrRequestShed: the server answered 429 (admission queue full).
	ErrRequestShed = httpclient.ErrShed
	// ErrServerUnavailable: the server answered 503 (draining or closed).
	ErrServerUnavailable = httpclient.ErrUnavailable
)

// Mutation is one change-feed event (insert, delete, or update) in
// bufferable form; see table.Mutation.
type Mutation = table.Mutation

// IngestBridge is the bounded-lag ingestion pipe between a table's change
// feed and a serving model: mutations buffer in a lock-free ring and apply
// in batches under the model's writer lock, with backpressure, drift
// detection, and a checkpointable feed cursor. See internal/ingest.
type IngestBridge = ingest.Bridge

// IngestConfig tunes an IngestBridge; see ingest.Config.
type IngestConfig = ingest.Config

// IngestStats is a snapshot of an IngestBridge's counters.
type IngestStats = ingest.Stats

// IngestOptions configures per-model continuous ingestion on a Registry;
// see registry.IngestOptions and Registry.AttachIngest.
type IngestOptions = registry.IngestOptions

// AttachIngest subscribes a bridge to tab's change feed, applying
// mutations to app in batches. Models managed by a Registry should use
// Registry.AttachIngest instead, which also wires drift-triggered ANALYZE
// and carries the bridge across evict/restore.
func AttachIngest(tab *Table, app ingest.Applier, cfg IngestConfig) (*IngestBridge, error) {
	return ingest.Attach(tab, app, cfg)
}
