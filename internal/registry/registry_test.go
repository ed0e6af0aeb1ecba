package registry

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

	"kdesel/internal/core"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// buildTable makes a d-dimensional clustered table with n rows.
func buildTable(t *testing.T, n, d int, seed int64) *table.Table {
	t.Helper()
	tab, err := table.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		center := float64(rng.Intn(3)) * 5
		for j := range row {
			row[j] = center + rng.NormFloat64()
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// dataQuery draws a query likely to overlap data.
func dataQuery(tab *table.Table, rng *rand.Rand) query.Range {
	d := tab.Dims()
	lo := make([]float64, d)
	hi := make([]float64, d)
	anchor := tab.Row(rng.Intn(tab.Len()))
	for j := 0; j < d; j++ {
		w := 0.5 + rng.Float64()*2
		lo[j] = anchor[j] - w
		hi[j] = anchor[j] + w
	}
	return query.NewRange(lo, hi)
}

func feedbackSet(t *testing.T, tab *table.Table, rng *rand.Rand, n int) []query.Feedback {
	t.Helper()
	fbs := make([]query.Feedback, n)
	for i := range fbs {
		q := dataQuery(tab, rng)
		actual, err := tab.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		fbs[i] = query.Feedback{Query: q, Actual: actual}
	}
	return fbs
}

func buildCfg(seed int64) core.Config {
	return core.Config{Mode: core.Adaptive, SampleSize: 64, Seed: seed, DisableMaintenance: true}
}

// modelShapes are the two model shapes the lifecycle tests admit: an
// unsharded model served by core.Server and a K=2 shard.Group. gauges are
// gauge funcs the shape registers under its metric prefix; moved is an
// instrument its first estimate moves.
var modelShapes = []struct {
	name   string
	admit  func(r *Registry, key Key, tab *table.Table, cfg core.Config, sc core.ServeConfig) error
	gauges []string
	moved  string
}{
	{"unsharded", (*Registry).Admit,
		[]string{"core.health", "core.snapshot_age_seconds", "serve.queue_depth"}, "core.estimate_seconds"},
	{"sharded", func(r *Registry, key Key, tab *table.Table, cfg core.Config, sc core.ServeConfig) error {
		cfg.SampleSize = 512 // two chunks, one per shard, wherever the table is large enough
		return r.AdmitSharded(key, tab, cfg, 2, sc)
	}, []string{"shard.shards", "shard.sample_size", "shard0.size", "shard1.size"}, "shard.gathers"},
}

func TestKeyStringParseRoundTrip(t *testing.T) {
	for _, k := range []Key{
		NewKey("orders", 0),
		NewKey("orders", 0, 2, 1),
		NewKey("a_b.c-d", 7, 7),
	} {
		s := k.String()
		got, err := ParseKey(s)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", s, err)
		}
		if got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
	}
	for _, bad := range []string{"", "t", "t()", "(0)", "t(0,)", "t(-1)", "t(x)"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
	// Column order is identity: (0,1) and (1,0) are distinct models.
	if NewKey("t", 0, 1).String() == NewKey("t", 1, 0).String() {
		t.Error("column order lost in canonical form")
	}
}

func TestProject(t *testing.T) {
	tab := buildTable(t, 50, 3, 1)
	p, err := Project(tab, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 2 || p.Len() != tab.Len() {
		t.Fatalf("projection shape %dx%d, want %dx2", p.Len(), p.Dims(), tab.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		src, got := tab.Row(i), p.Row(i)
		if got[0] != src[2] || got[1] != src[0] {
			t.Fatalf("row %d: %v from %v", i, got, src)
		}
	}
	if _, err := Project(tab, []int{3}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := Project(tab, nil); err == nil {
		t.Error("empty subset accepted")
	}
}

// TestLifecycleEvictRestoreBitIdentical: tune a model with feedback, record
// its estimates, evict it, and estimate again through the registry — the
// transparent restore must reproduce every estimate bit-for-bit
// (checkpoint restoration is bit-identical continuation).
func TestLifecycleEvictRestoreBitIdentical(t *testing.T) {
	for _, shape := range modelShapes {
		t.Run(shape.name, func(t *testing.T) {
			tab := buildTable(t, 400, 2, 11)
			r := New(Config{CheckpointDir: t.TempDir(), Metrics: metrics.New()})
			defer r.Close()

			key := NewKey("t", 0, 1)
			if err := shape.admit(r, key, tab, buildCfg(7), core.ServeConfig{MaxBatch: 1}); err != nil {
				t.Fatal(err)
			}
			if err := shape.admit(r, key, tab, buildCfg(7), core.ServeConfig{}); !errors.Is(err, ErrDuplicateModel) {
				t.Fatalf("duplicate admit: err = %v, want ErrDuplicateModel", err)
			}
			rng := rand.New(rand.NewSource(3))
			for _, fb := range feedbackSet(t, tab, rng, 20) {
				if _, err := r.Estimate(key, fb.Query); err != nil {
					t.Fatal(err)
				}
				if err := r.Feedback(key, fb.Query, fb.Actual); err != nil {
					t.Fatal(err)
				}
			}
			qs := make([]query.Range, 30)
			want := make([]float64, len(qs))
			for i := range qs {
				qs[i] = dataQuery(tab, rng)
				var err error
				if want[i], err = r.Estimate(key, qs[i]); err != nil {
					t.Fatal(err)
				}
			}

			if err := r.Evict(key); err != nil {
				t.Fatal(err)
			}
			if r.IsResident(key) {
				t.Fatal("model still resident after Evict")
			}
			for i, q := range qs {
				got, err := r.Estimate(key, q) // transparent restore on first call
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("query %d: restored estimate %v != pre-eviction %v", i, got, want[i])
				}
			}
			if !r.IsResident(key) {
				t.Error("model not resident after restore")
			}

			if _, err := r.Estimate(NewKey("nope", 0), qs[0]); !errors.Is(err, ErrUnknownModel) {
				t.Errorf("unknown key: err = %v, want ErrUnknownModel", err)
			}
		})
	}
}

// TestCheckpointRotationKeepsLastK: repeated checkpoints prune old files.
func TestCheckpointRotationKeepsLastK(t *testing.T) {
	for _, shape := range modelShapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			tab := buildTable(t, 200, 2, 5)
			r := New(Config{CheckpointDir: dir, KeepCheckpoints: 2})
			defer r.Close()
			key := NewKey("rot", 0, 1)
			if err := shape.admit(r, key, tab, buildCfg(1), core.ServeConfig{MaxBatch: 1}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := r.CheckpointNow(key); err != nil {
					t.Fatal(err)
				}
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 2 {
				t.Errorf("rotation left %d files %v, want 2", len(files), files)
			}
		})
	}
}

// TestLRUAndIdleEviction: residency cap evicts the least-recently-used
// model, and Sweep evicts idle models past IdleAfter.
func TestLRUAndIdleEviction(t *testing.T) {
	tab := buildTable(t, 200, 1, 9)
	r := New(Config{
		MaxResident:   2,
		IdleAfter:     30 * time.Millisecond,
		SweepEvery:    -1, // deterministic: tests call Sweep directly
		CheckpointDir: t.TempDir(),
	})
	defer r.Close()
	keys := []Key{NewKey("t", 0), NewKey("u", 0), NewKey("v", 0)}
	for i, k := range keys {
		if err := r.Admit(k, tab, buildCfg(int64(i)), core.ServeConfig{MaxBatch: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct lastUsed stamps
	}
	if got := r.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2 (MaxResident)", got)
	}
	if r.IsResident(keys[0]) {
		t.Error("LRU victim should be the first-admitted model")
	}
	// Touching the evicted model restores it and evicts the new LRU.
	if _, err := r.Estimate(keys[0], dataQuery(tab, rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
	if !r.IsResident(keys[0]) || r.Resident() != 2 {
		t.Errorf("after restore: resident(t)=%v total=%d, want true/2", r.IsResident(keys[0]), r.Resident())
	}

	time.Sleep(40 * time.Millisecond)
	r.Sweep()
	if got := r.Resident(); got != 0 {
		t.Errorf("after idle sweep: resident = %d, want 0", got)
	}
	// All still servable.
	for _, k := range keys {
		if _, err := r.Estimate(k, dataQuery(tab, rand.New(rand.NewSource(4)))); err != nil {
			t.Errorf("estimate %v after idle eviction: %v", k, err)
		}
	}
}

// TestPerModelMetricNamespace: two models on one shared registry get
// disjoint metric namespaces; evicting one tears down exactly its gauge
// funcs and leaves the other's (the multi-model generalization of the
// serve.queue_depth collision bug).
func TestPerModelMetricNamespace(t *testing.T) {
	for _, shape := range modelShapes {
		t.Run(shape.name, func(t *testing.T) {
			met := metrics.New()
			tab := buildTable(t, 300, 2, 21)
			r := New(Config{CheckpointDir: t.TempDir(), Metrics: met})
			defer r.Close()
			a, b := NewKey("t", 0, 1), NewKey("t", 1, 0)
			for i, k := range []Key{a, b} {
				pt, err := Project(tab, k.Columns)
				if err != nil {
					t.Fatal(err)
				}
				if err := shape.admit(r, k, pt, buildCfg(int64(i)), core.ServeConfig{MaxBatch: 8}); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Estimate(k, dataQuery(pt, rand.New(rand.NewSource(int64(i))))); err != nil {
					t.Fatal(err)
				}
			}
			snap := met.Snapshot()
			for _, k := range []Key{a, b} {
				for _, g := range shape.gauges {
					if _, ok := snap.Gauges[k.MetricPrefix()+g]; !ok {
						t.Errorf("gauge %s%s missing from shared registry", k.MetricPrefix(), g)
					}
				}
				_, isHist := snap.Histograms[k.MetricPrefix()+shape.moved]
				if n := snap.Counters[k.MetricPrefix()+shape.moved]; !isHist && n == 0 {
					t.Errorf("instrument %s%s missing", k.MetricPrefix(), shape.moved)
				}
			}
			for _, g := range []string{"registry.models_resident", "registry.analyze_queue_depth"} {
				if _, ok := snap.Gauges[g]; !ok {
					t.Errorf("registry gauge %s missing", g)
				}
			}
			if got := snap.Gauges["registry.models_resident"]; got != 2 {
				t.Errorf("models_resident = %v, want 2", got)
			}

			if err := r.Evict(a); err != nil {
				t.Fatal(err)
			}
			// Gauge FUNCS must be torn down (a dead closure reports stale state and
			// pins the evicted model); plain gauges, counters, and histograms are
			// inert values and survive like any other monotonic history.
			snap = met.Snapshot()
			for _, g := range shape.gauges {
				if _, ok := snap.Gauges[a.MetricPrefix()+g]; ok {
					t.Errorf("evicted model's gauge func %s%s still registered", a.MetricPrefix(), g)
				}
				if _, ok := snap.Gauges[b.MetricPrefix()+g]; !ok {
					t.Errorf("surviving model's gauge func %s%s was torn down by the other's eviction", b.MetricPrefix(), g)
				}
			}
			if got := snap.Gauges["registry.models_resident"]; got != 1 {
				t.Errorf("models_resident after eviction = %v, want 1", got)
			}
		})
	}
}

// TestAnalyzeIsolation: a synchronous ANALYZE on one model must not block
// estimates on another (per-model writer locks), nor estimates on itself
// (snapshot isolation).
func TestAnalyzeIsolation(t *testing.T) {
	tabA := buildTable(t, 500, 2, 31)
	tabB := buildTable(t, 300, 2, 32)
	r := New(Config{CheckpointDir: t.TempDir()})
	defer r.Close()
	ka, kb := NewKey("a", 0, 1), NewKey("b", 0, 1)
	cfgA := buildCfg(1)
	cfgA.SampleSize = 256
	if err := r.Admit(ka, tabA, cfgA, core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit(kb, tabB, buildCfg(2), core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	fbs := feedbackSet(t, tabA, rand.New(rand.NewSource(33)), 64)

	analyzeDone := make(chan error, 1)
	go func() { analyzeDone <- r.Analyze(ka, fbs) }()

	rng := rand.New(rand.NewSource(34))
	servedDuring := 0
	for {
		select {
		case err := <-analyzeDone:
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if servedDuring == 0 {
				t.Skip("ANALYZE finished before any concurrent estimate; nothing to assert")
			}
			return
		default:
		}
		for _, k := range []Key{ka, kb} {
			est, err := r.Estimate(k, dataQuery(r.Table(k), rng))
			if err != nil {
				t.Fatalf("estimate %v during analyze: %v", k, err)
			}
			if math.IsNaN(est) || est < 0 || est > 1 {
				t.Fatalf("estimate %v escapes [0,1]", est)
			}
		}
		servedDuring++
	}
}

// TestScheduleAnalyze: the background worker drains the queue and applies
// the re-optimization; the queue rejects overflow with a typed error.
func TestScheduleAnalyze(t *testing.T) {
	tab := buildTable(t, 300, 2, 41)
	met := metrics.New()
	r := New(Config{Metrics: met, AnalyzeQueue: 4})
	defer r.Close()
	key := NewKey("t", 0, 1)
	if err := r.Admit(key, tab, buildCfg(1), core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	fbs := feedbackSet(t, tab, rand.New(rand.NewSource(42)), 16)
	if err := r.ScheduleAnalyze(key, fbs); err != nil {
		t.Fatal(err)
	}
	if err := r.ScheduleAnalyze(NewKey("nope", 0), fbs); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("schedule unknown: err = %v, want ErrUnknownModel", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for met.Counter("registry.analyzes").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background analyze never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinModelRoutesLikeBaseModels: a join model admitted via AdmitJoin
// serves estimates and survives evict→restore exactly like a single-table
// model.
func TestJoinModelRoutesLikeBaseModels(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pk, err := table.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := pk.Insert([]float64{float64(i), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	fk, err := table.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := fk.Insert([]float64{rng.NormFloat64() * 3, float64(rng.Intn(100))}); err != nil {
			t.Fatal(err)
		}
	}
	r := New(Config{CheckpointDir: t.TempDir()})
	defer r.Close()
	key := NewKey("fk⋈pk", 0, 1, 2, 3)
	if err := r.AdmitJoin(key, fk, pk, 1, 0, 256, 52, buildCfg(1), core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	jt := r.Table(key)
	if jt == nil || jt.Dims() != 4 {
		t.Fatalf("join table dims = %v, want 4", jt)
	}
	q := dataQuery(jt, rng)
	want, err := r.Estimate(key, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evict(key); err != nil {
		t.Fatal(err)
	}
	got, err := r.Estimate(key, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("join model restore: %v != %v", got, want)
	}
}

// TestConcurrentLifecycle races estimates and feedback across many models
// against evictions, restores, scheduled ANALYZEs, and sweeps. Run with
// -race (the Makefile race-resilience target includes this package). The
// assertions are liveness and the [0,1] output contract; lost feedback
// racing an eviction is documented and tolerated.
func TestConcurrentLifecycle(t *testing.T) {
	met := metrics.New()
	r := New(Config{
		MaxResident:   3,
		CheckpointDir: t.TempDir(),
		Metrics:       met,
		SweepEvery:    -1,
	})
	defer r.Close()
	const nModels = 4
	keys := make([]Key, nModels)
	tabs := make([]*table.Table, nModels)
	for i := range keys {
		keys[i] = NewKey("m", i)
		tabs[i] = buildTable(t, 200, 1, int64(60+i))
		if err := r.Admit(keys[i], tabs[i], buildCfg(int64(i)), core.ServeConfig{MaxBatch: 4, Metrics: met}); err != nil {
			t.Fatal(err)
		}
	}

	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + c)))
			for !stopFlag.Load() {
				i := rng.Intn(nModels)
				q := dataQuery(tabs[i], rng)
				est, err := r.Estimate(keys[i], q)
				if err != nil {
					t.Errorf("estimate %v: %v", keys[i], err)
					return
				}
				if math.IsNaN(est) || est < 0 || est > 1 {
					t.Errorf("estimate %v escapes [0,1]", est)
					return
				}
				if rng.Intn(4) == 0 {
					actual, err := tabs[i].Selectivity(q)
					if err != nil {
						t.Error(err)
						return
					}
					if err := r.Feedback(keys[i], q, actual); err != nil {
						t.Errorf("feedback %v: %v", keys[i], err)
						return
					}
				}
			}
		}()
	}
	// Lifecycle churn: evictions, sweeps, scheduled analyzes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stopFlag.Load() {
			i := rng.Intn(nModels)
			switch rng.Intn(3) {
			case 0:
				if err := r.Evict(keys[i]); err != nil {
					t.Errorf("evict %v: %v", keys[i], err)
					return
				}
			case 1:
				r.Sweep()
			case 2:
				fbs := []query.Feedback{}
				for j := 0; j < 4; j++ {
					q := dataQuery(tabs[i], rng)
					actual, _ := tabs[i].Selectivity(q)
					fbs = append(fbs, query.Feedback{Query: q, Actual: actual})
				}
				_ = r.ScheduleAnalyze(keys[i], fbs) // queue-full is fine here
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stopFlag.Store(true)
	wg.Wait()

	if got := r.Resident(); got > 3 {
		t.Errorf("resident = %d exceeds MaxResident", got)
	}
	snap := met.Snapshot()
	if snap.Gauges["registry.models_admitted"] != nModels {
		t.Errorf("models_admitted = %v, want %d", snap.Gauges["registry.models_admitted"], nModels)
	}
}

// TestCloseCheckpointsAndRejects: Close checkpoints resident models, tears
// down instruments, and subsequent calls fail typed.
func TestCloseCheckpointsAndRejects(t *testing.T) {
	for _, shape := range modelShapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			met := metrics.New()
			tab := buildTable(t, 150, 1, 81)
			r := New(Config{CheckpointDir: dir, Metrics: met})
			key := NewKey("t", 0)
			if err := shape.admit(r, key, tab, buildCfg(1), core.ServeConfig{MaxBatch: 4, Metrics: met}); err != nil {
				t.Fatal(err)
			}
			r.Close()
			r.Close() // idempotent
			files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if len(files) == 0 {
				t.Error("Close did not checkpoint the resident model")
			}
			if _, err := r.Estimate(key, dataQuery(tab, rand.New(rand.NewSource(1)))); !errors.Is(err, ErrClosed) {
				t.Errorf("estimate after Close: err = %v, want ErrClosed", err)
			}
			snap := met.Snapshot()
			gauges := []string{"registry.models_resident", "registry.analyze_queue_depth"}
			for _, g := range shape.gauges {
				gauges = append(gauges, key.MetricPrefix()+g)
			}
			for _, g := range gauges {
				if _, ok := snap.Gauges[g]; ok {
					t.Errorf("gauge func %s survives registry Close", g)
				}
			}
		})
	}
}

// TestEvictionRacesEstimateContext: eviction/restore churn (including a
// sharded entry) racing EstimateContext calls whose contexts cancel
// mid-estimate. Estimates either answer from a consistent snapshot or fail
// with the context's own error — never a torn result, never an internal
// error — and the registry survives the churn with residency intact. Run
// under -race this is the lifecycle half of the chaos suite.
func TestEvictionRacesEstimateContext(t *testing.T) {
	met := metrics.New()
	r := New(Config{
		MaxResident:   2,
		CheckpointDir: t.TempDir(),
		Metrics:       met,
		SweepEvery:    -1,
	})
	defer r.Close()

	const nModels = 3
	keys := make([]Key, nModels)
	tabs := make([]*table.Table, nModels)
	for i := range keys {
		keys[i] = NewKey("m", i, i+10)
		tabs[i] = buildTable(t, 400, 2, int64(160+i))
		var err error
		if i == nModels-1 {
			// The last entry is sharded: its evict path checkpoints all
			// shards atomically and its estimates scatter/gather.
			err = r.AdmitSharded(keys[i], tabs[i],
				core.Config{SampleSize: 512, Seed: int64(i)}, 2, core.ServeConfig{})
		} else {
			err = r.Admit(keys[i], tabs[i], buildCfg(int64(i)), core.ServeConfig{})
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	var served, canceled atomic.Int64
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(170 + c)))
			for !stopFlag.Load() {
				i := rng.Intn(nModels)
				q := dataQuery(tabs[i], rng)
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					// Cancel mid-estimate from a racing goroutine (delay
					// drawn here: the rng is not goroutine-safe).
					delay := time.Duration(rng.Intn(50)) * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				est, err := r.EstimateContext(ctx, keys[i], q)
				switch {
				case err == nil:
					if math.IsNaN(est) || est < 0 || est > 1 {
						t.Errorf("estimate %v escapes [0,1]", est)
						cancel()
						return
					}
					served.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					canceled.Add(1)
				default:
					t.Errorf("estimate %v: %v", keys[i], err)
					cancel()
					return
				}
				cancel()
			}
		}()
	}
	// Churn: direct evictions plus LRU pressure from restores.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(199))
		for !stopFlag.Load() {
			if err := r.Evict(keys[rng.Intn(nModels)]); err != nil {
				t.Errorf("evict: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stopFlag.Store(true)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no estimate survived the churn; the test exercised nothing")
	}
	if canceled.Load() == 0 {
		t.Log("note: no estimate observed a cancellation this run")
	}
	if got := r.Resident(); got > 2 {
		t.Errorf("resident = %d exceeds MaxResident", got)
	}
	// The sharded entry still answers deterministically after the churn:
	// two back-to-back estimates through restore-from-checkpoint agree.
	q := dataQuery(tabs[nModels-1], rand.New(rand.NewSource(201)))
	a, err := r.Estimate(keys[nModels-1], q)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Evict(keys[nModels-1]); err != nil {
		t.Fatal(err)
	}
	b, err := r.Estimate(keys[nModels-1], q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("sharded estimate changed across evict/restore: %x != %x",
			math.Float64bits(a), math.Float64bits(b))
	}
}
