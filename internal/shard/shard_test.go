package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kdesel/internal/checkpoint"
	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/kde"
	"kdesel/internal/learner"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// testTable builds a deterministic n-row, d-dim table.
func testTable(t *testing.T, n, d int, seed int64) *table.Table {
	t.Helper()
	tab, err := table.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()*float64(j+1) + 0.3*float64(j)
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func testQueries(n, d int, seed int64) []query.Range {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Range, n)
	for i := range qs {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := range lo {
			a := rng.NormFloat64() * float64(j+1) * 2
			b := a + math.Abs(rng.NormFloat64())*float64(j+1)
			lo[j], hi[j] = a, b
		}
		qs[i] = query.NewRange(lo, hi)
	}
	return qs
}

// refEstimator builds the unsharded reference: a raw kde.Estimator over
// the exact global sample a Group draws (same counted stream), with the
// same Scott bandwidth and precision.
func refEstimator(t *testing.T, tab *table.Table, cfg Config) *kde.Estimator {
	t.Helper()
	d := tab.Dims()
	rng := rand.New(sample.NewCountingSource(cfg.Seed + 1))
	s := cfg.sampleSize()
	if s > tab.Len() {
		s = tab.Len()
	}
	flat, err := tab.SampleFlat(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := kde.New(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	est.SetPool(parallel.PoolFor(cfg.Workers))
	if err := est.SetSampleFlat(flat); err != nil {
		t.Fatal(err)
	}
	if err := est.SetBandwidth(kde.ScottBandwidth(flat, d)); err != nil {
		t.Fatal(err)
	}
	if cfg.Precision != mathx.Float64 {
		est.SetPrecision(cfg.Precision)
	}
	return est
}

// TestShardBitIdentity is the headline determinism contract: for every
// shard count, worker count, serving precision, and erf mode, the sharded
// gather reproduces the unsharded estimator bit for bit (Float64bits).
func TestShardBitIdentity(t *testing.T) {
	const d, rows, sampleSize = 3, 3000, 1200
	tab := testTable(t, rows, d, 11)
	qs := testQueries(40, d, 23)
	for _, prec := range []mathx.Precision{mathx.Float64, mathx.Float32} {
		for _, fast := range []bool{false, true} {
			mode := mathx.Exact
			if fast {
				mode = mathx.Fast
			}
			prev := mathx.CurrentMode()
			mathx.SetMode(mode)
			ref := refEstimator(t, tab, Config{SampleSize: sampleSize, Seed: 7, Precision: prec})
			want := make([]float64, len(qs))
			if err := ref.SelectivityBatch(qs, want); err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 7} {
				for _, workers := range []int{0, 3, 8} {
					g, err := Build(tab, Config{
						Shards: k, SampleSize: sampleSize, Seed: 7,
						Precision: prec, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					got := make([]float64, len(qs))
					if err := g.EstimateBatch(qs, got); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("prec=%v fast=%v K=%d workers=%d query %d: got %x (%g), want %x (%g)",
								prec, fast, k, workers, i,
								math.Float64bits(got[i]), got[i],
								math.Float64bits(want[i]), want[i])
						}
					}
					// Single-query path agrees with the batch path.
					est, err := g.Estimate(qs[0])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(est) != math.Float64bits(want[0]) {
						t.Fatalf("prec=%v K=%d: single-query estimate %g != batch %g", prec, k, est, want[0])
					}
					g.Close()
				}
			}
			mathx.SetMode(prev)
		}
	}
}

// TestShardFeedbackInvariance: the learned trajectory — bandwidth steps,
// karma replacements, reservoir accepts — is invariant in K: after an
// identical feedback and insert sequence, groups of every shard count
// serve bit-identical estimates.
func TestShardFeedbackInvariance(t *testing.T) {
	const d, rows, sampleSize = 2, 2500, 1000
	tab1 := testTable(t, rows, d, 31)
	qs := testQueries(25, d, 41)
	fbq := testQueries(60, d, 43)

	ref := make([]float64, len(qs))
	for ki, k := range []int{1, 2, 4, 7} {
		// A fresh table per K: OnInsert mutates listener state.
		tab := tab1
		if ki > 0 {
			tab = testTable(t, rows, d, 31)
		}
		g, err := Build(tab, Config{Shards: k, SampleSize: sampleSize, Seed: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range fbq {
			actual := 0.0
			if i%3 != 0 { // every third query reports an empty region
				actual, err = tab.Selectivity(q)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := g.Feedback(q, actual); err != nil {
				t.Fatalf("K=%d feedback %d: %v", k, i, err)
			}
			if i%10 == 0 { // interleave inserts to drive the reservoir
				if err := tab.Insert([]float64{float64(i), -float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := make([]float64, len(qs))
		if err := g.EstimateBatch(qs, got); err != nil {
			t.Fatal(err)
		}
		if ki == 0 {
			copy(ref, got)
		} else {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("K=%d diverged from K=1 after feedback at query %d: %g vs %g", k, i, got[i], ref[i])
				}
			}
		}
		g.Close()
	}
}

// TestShardCheckpointRoundTrip: a restored group serves bit-identical
// estimates AND continues bit-identically under further feedback — the
// checkpoint captures the full shared state (learner, karma, RNG stream).
func TestShardCheckpointRoundTrip(t *testing.T) {
	const d, rows, sampleSize = 2, 2000, 900
	for _, prec := range []mathx.Precision{mathx.Float64, mathx.Float32} {
		tab := testTable(t, rows, d, 17)
		qs := testQueries(20, d, 19)
		fbq := testQueries(30, d, 29)
		g, err := Build(tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 3, Workers: 2, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range fbq[:15] {
			actual, _ := tab.Selectivity(q)
			if err := g.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "group.ckpt")
		if err := g.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		tab2 := testTable(t, rows, d, 17)
		r, err := Restore(path, tab2, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Shards() != 4 || r.Size() != g.Size() || r.Precision() != prec {
			t.Fatalf("restored shape: shards=%d size=%d prec=%v, want 4/%d/%v", r.Shards(), r.Size(), r.Precision(), g.Size(), prec)
		}
		check := func(stage string) {
			t.Helper()
			a := make([]float64, len(qs))
			b := make([]float64, len(qs))
			if err := g.EstimateBatch(qs, a); err != nil {
				t.Fatal(err)
			}
			if err := r.EstimateBatch(qs, b); err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("prec=%v %s: restored group diverged at query %d: %g vs %g", prec, stage, i, b[i], a[i])
				}
			}
		}
		check("immediately after restore")
		// Continuation: identical further feedback must keep them in
		// lockstep (same karma decisions, same replacement rows drawn
		// from the fast-forwarded RNG, same learner steps).
		for _, q := range fbq[15:] {
			actual, _ := tab.Selectivity(q)
			if err := g.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
			if err := r.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
		}
		check("after post-restore feedback")
		g.Close()
		r.Close()
	}
}

// legacyGroupState is groupState as group checkpoints written while the
// int16 serving tier existed laid it out: the same fields plus the
// per-dimension quantization constants pinned into every shard.
type legacyGroupState struct {
	K, D, STotal int
	Seed         int64
	H            []float64
	Draws        uint64
	ResSeen      int
	Learner      learner.State
	Karma        []float64
	Analyzes     int
	PinScale     []float32
	PinOff       []float32
	IngestSeq    uint64
}

// TestShardRestoreUnknownPrecision: a group frame whose precision byte is
// not a current tier — 2 (the retired int16 tier, whose frames also carry
// pinned quantization constants) or 0xff — restores at Float64, serves
// bit-identically to the Float64 group that wrote it, and checkpoints
// Float64 back rather than the unknown byte.
func TestShardRestoreUnknownPrecision(t *testing.T) {
	const d, rows, sampleSize = 2, 1500, 700
	tab := testTable(t, rows, d, 61)
	qs := testQueries(20, d, 67)
	g, err := Build(tab, Config{Shards: 3, SampleSize: sampleSize, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want := make([]float64, len(qs))
	if err := g.EstimateBatch(qs, want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "group.ckpt")
	if err := g.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	frames := readFrames(t, path)
	var st groupState
	if _, err := checkpoint.UnmarshalMeta(frames[0], &st); err != nil {
		t.Fatal(err)
	}
	legacy := legacyGroupState{
		K: st.K, D: st.D, STotal: st.STotal, Seed: st.Seed, H: st.H,
		Draws: st.Draws, ResSeen: st.ResSeen, Learner: st.Learner,
		Karma: st.Karma, Analyzes: st.Analyzes, IngestSeq: st.IngestSeq,
		PinScale: []float32{1e-4, 2e-4}, PinOff: []float32{0.5, -0.5},
	}
	for _, meta := range []uint32{2, 0xff} {
		f0, err := checkpoint.MarshalMeta(legacy, meta)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("meta%d.ckpt", meta))
		if err := checkpoint.WriteFileFrames(p, append([][]byte{f0}, frames[1:]...), nil); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(p, testTable(t, rows, d, 61), Config{Workers: 2})
		if err != nil {
			t.Fatalf("meta %#x: %v", meta, err)
		}
		if got := r.Precision(); got != mathx.Float64 {
			t.Fatalf("meta %#x: restored precision %v, want float64", meta, got)
		}
		got := make([]float64, len(qs))
		if err := r.EstimateBatch(qs, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("meta %#x query %d: %g, want float64 %g", meta, i, got[i], want[i])
			}
		}
		back := filepath.Join(dir, "back.ckpt")
		if err := r.Checkpoint(back); err != nil {
			t.Fatal(err)
		}
		if m, err := checkpoint.UnmarshalMeta(readFrames(t, back)[0], &st); err != nil || m != 0 {
			t.Fatalf("meta %#x: re-checkpointed meta %#x (err %v), want 0", meta, m, err)
		}
		r.Close()
	}
}

func readFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := checkpoint.SplitFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestShardEmptyShards: more shards than global chunks (K=7 over a
// 2-chunk sample) leaves five shards empty; the group still serves and
// still matches the unsharded reference bit for bit.
func TestShardEmptyShards(t *testing.T) {
	const d, rows, sampleSize = 2, 800, 512 // 512 rows → 2 chunks
	tab := testTable(t, rows, d, 53)
	qs := testQueries(10, d, 59)
	ref := refEstimator(t, tab, Config{SampleSize: sampleSize, Seed: 9})
	want := make([]float64, len(qs))
	if err := ref.SelectivityBatch(qs, want); err != nil {
		t.Fatal(err)
	}
	g, err := Build(tab, Config{Shards: 7, SampleSize: sampleSize, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sizes := g.ShardSizes()
	empty := 0
	for _, s := range sizes {
		if s == 0 {
			empty++
		}
	}
	if empty != 5 {
		t.Fatalf("want 5 empty shards over 2 chunks, got sizes %v", sizes)
	}
	got := make([]float64, len(qs))
	if err := g.EstimateBatch(qs, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: got %g, want %g", i, got[i], want[i])
		}
	}
	// Feedback routes around the empty shards too.
	if err := g.Feedback(qs[0], 0.25); err != nil {
		t.Fatal(err)
	}
}

// TestShardPartialFailure: a shard lost during the scatter degrades the
// gather (renormalized over survivors, Degraded health, per-request
// flag) instead of failing it; losing every shard is an error.
func TestShardPartialFailure(t *testing.T) {
	const d, rows, sampleSize = 2, 2000, 1024 // 4 chunks → K=4, one chunk each
	tab := testTable(t, rows, d, 61)
	q := testQueries(1, d, 67)[0]

	// Occurrences count per-shard scatter attempts in shard-index order:
	// the 4 shards of the first gather are occurrences 1..4.
	inj := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{2}}})
	g, err := Build(tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13, Workers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	est, degraded, err := g.EstimateDetail(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("gather with a failed shard did not report degraded")
	}
	if g.Health() != core.Degraded {
		t.Fatalf("health = %v, want Degraded", g.Health())
	}
	if math.IsNaN(est) || est < 0 || est > 1.0001 {
		t.Fatalf("degraded estimate out of range: %g", est)
	}
	// The renormalized estimate equals the mean over the surviving
	// shards' chunks: recompute it from the healthy group.
	g2, err := Build(tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	est2, degraded2, err := g2.EstimateDetail(context.Background(), q)
	if err != nil || degraded2 {
		t.Fatalf("healthy group: est=%g degraded=%v err=%v", est2, degraded2, err)
	}
	if math.Abs(est-est2) > 0.2 {
		t.Fatalf("degraded estimate %g implausibly far from healthy %g", est, est2)
	}

	// All shards down: the gather must fail, not serve garbage.
	injAll := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{1, 2, 3, 4}}})
	g3, err := Build(tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13, Faults: injAll})
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	if _, _, err := g3.EstimateDetail(context.Background(), q); !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("all-shards-failed gather returned %v, want ErrAllShardsFailed", err)
	}
}

// TestShardContextCancel: an expired request context aborts the gather
// with the context's error.
func TestShardContextCancel(t *testing.T) {
	tab := testTable(t, 1500, 2, 71)
	g, err := Build(tab, Config{Shards: 4, SampleSize: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.EstimateContext(ctx, testQueries(1, 2, 73)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate returned %v, want context.Canceled", err)
	}
}

// TestShardInvalidQuery: validation failures map to core.ErrInvalidQuery
// (the HTTP layer's 400 taxonomy) for dimension mismatch, NaN, and
// inverted bounds.
func TestShardInvalidQuery(t *testing.T) {
	tab := testTable(t, 1000, 2, 79)
	g, err := Build(tab, Config{Shards: 2, SampleSize: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bad := []query.Range{
		query.NewRange([]float64{0}, []float64{1}),                 // wrong dims
		query.NewRange([]float64{math.NaN(), 0}, []float64{1, 1}),  // NaN
		query.NewRange([]float64{0, 0}, []float64{math.Inf(1), 1}), // Inf
		query.NewRange([]float64{1, 0}, []float64{0, 1}),           // inverted
	}
	for i, q := range bad {
		if _, err := g.Estimate(q); !errors.Is(err, core.ErrInvalidQuery) {
			t.Fatalf("bad query %d returned %v, want core.ErrInvalidQuery", i, err)
		}
	}
	if err := g.Feedback(testQueries(1, 2, 1)[0], math.NaN()); !errors.Is(err, core.ErrInvalidFeedback) {
		t.Fatalf("NaN feedback returned %v, want core.ErrInvalidFeedback", err)
	}
}

// TestShardAnalyzeIsolation: while ANALYZE optimizes over one shard's
// sample, estimates keep completing (the optimization holds no lock the
// estimate path touches) and the bandwidth is installed group-wide
// afterwards.
func TestShardAnalyzeIsolation(t *testing.T) {
	const d = 2
	tab := testTable(t, 3000, d, 83)
	g, err := Build(tab, Config{Shards: 4, SampleSize: 2048, Seed: 21, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	h0 := g.Bandwidth()
	fbq := testQueries(40, d, 89)
	fbs := make([]query.Feedback, len(fbq))
	for i, q := range fbq {
		actual, _ := tab.Selectivity(q)
		fbs[i] = query.Feedback{Query: q, Actual: actual}
	}
	done := make(chan error, 1)
	go func() { done <- g.AnalyzeShard(1, fbs) }()
	qs := testQueries(5, d, 97)
	ests := make([]float64, len(qs))
	served := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if served == 0 {
				t.Fatal("no estimates served during analyze")
			}
			h1 := g.Bandwidth()
			changed := false
			for j := range h1 {
				if h1[j] != h0[j] {
					changed = true
				}
			}
			if !changed {
				t.Fatal("analyze did not install a new bandwidth")
			}
			return
		default:
			if err := g.EstimateBatch(qs, ests); err != nil {
				t.Fatalf("estimate during analyze: %v", err)
			}
			served++
		}
	}
}

// TestShardMetrics: per-shard namespaces land under shard<i>.* and the
// group counters move.
func TestShardMetrics(t *testing.T) {
	reg := metrics.New()
	tab := testTable(t, 1500, 2, 101)
	g, err := Build(tab, Config{Shards: 2, SampleSize: 600, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Estimate(testQueries(1, 2, 103)[0]); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["shard.gathers"] != 1 {
		t.Fatalf("shard.gathers = %v, want 1", snap.Counters["shard.gathers"])
	}
	if snap.Gauges["shard0.size"]+snap.Gauges["shard1.size"] != 600 {
		t.Fatalf("per-shard sizes %v + %v do not sum to 600", snap.Gauges["shard0.size"], snap.Gauges["shard1.size"])
	}
	if snap.Gauges["shard.shards"] != 2 {
		t.Fatalf("shard.shards = %v, want 2", snap.Gauges["shard.shards"])
	}
}
