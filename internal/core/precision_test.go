package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"kdesel/internal/checkpoint"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// TestPrecisionTierServing: a server configured with the float32 tier on
// well-conditioned data serves from that tier (the verify gate
// passes), estimates stay within the tier's error contract of the float64
// path, and switching back to Float64 restores the exact path bit for bit.
func TestPrecisionTierServing(t *testing.T) {
	tab := buildClusteredTable(t, 600, 17)
	rng := rand.New(rand.NewSource(23))
	qs := make([]query.Range, 32)
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 1.5)
	}
	cfg := Config{Mode: Heuristic, SampleSize: 256, Seed: 9}
	baseline, err := Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseSrv := NewServer(baseline, ServeConfig{MaxBatch: 1})
	want := make([]float64, len(qs))
	for i, q := range qs {
		if want[i], err = baseSrv.Estimate(q); err != nil {
			t.Fatal(err)
		}
	}

	for _, tier := range []struct {
		p   mathx.Precision
		tol float64
	}{{mathx.Float32, 1e-4}} {
		t.Run(tier.p.String(), func(t *testing.T) {
			est, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			est.Instrument(reg)
			srv := NewServer(est, ServeConfig{MaxBatch: 1, Precision: tier.p})
			if got := srv.ConfiguredPrecision(); got != tier.p {
				t.Fatalf("ConfiguredPrecision = %v, want %v", got, tier.p)
			}
			if got := srv.ActivePrecision(); got != tier.p {
				t.Fatalf("ActivePrecision = %v, want %v (verify gate should pass here)", got, tier.p)
			}
			if n := reg.Counter("core.precision_fallbacks").Value(); n != 0 {
				t.Fatalf("precision_fallbacks = %d, want 0", n)
			}
			if h := srv.Health(); h != Healthy {
				t.Fatalf("Health = %v, want Healthy", h)
			}
			for i, q := range qs {
				got, err := srv.Estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want[i]) > tier.tol {
					t.Errorf("query %d: %v estimate %v vs float64 %v (tol %v)", i, tier.p, got, want[i], tier.tol)
				}
			}
			// Switching back to Float64 must restore the exact path.
			srv.SetPrecision(mathx.Float64)
			if got := srv.ActivePrecision(); got != mathx.Float64 {
				t.Fatalf("ActivePrecision after reset = %v, want Float64", got)
			}
			for i, q := range qs {
				got, err := srv.Estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("query %d: float64 estimate %v not bit-identical to baseline %v", i, got, want[i])
				}
			}
		})
	}
}

// gateTable builds a workload the float32 tier cannot represent: sample
// values spread over [1e6, 1e6+10], where float32's spacing is 1/16 — every
// value rounds by up to 0.03 — while a tiny bandwidth (gateEstimator) makes
// the verify sweep's queries far narrower than that rounding error.
func gateTable(t *testing.T) *table.Table {
	t.Helper()
	tab, err := table.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		v := 1e6 + 10*float64(i)/255
		if err := tab.Insert([]float64{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func gateEstimator(t *testing.T, tab *table.Table) *Estimator {
	t.Helper()
	est, err := Build(tab, Config{Mode: Heuristic, SampleSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.SetBandwidth([]float64{1e-3, 1e-3}); err != nil {
		t.Fatal(err)
	}
	return est
}

// TestPrecisionVerifyGate: a tier whose error exceeds its contract is
// refused at publish time — the server keeps serving the exact float64
// path bit for bit, counts the fallback, and reports Degraded health.
// The refusal is sticky (parked) but a reconfiguration retries the gate.
func TestPrecisionVerifyGate(t *testing.T) {
	tab := gateTable(t)
	est := gateEstimator(t, tab)
	reg := metrics.New()
	est.Instrument(reg)
	srv := NewServer(est, ServeConfig{MaxBatch: 1, Precision: mathx.Float32})

	if got := srv.ConfiguredPrecision(); got != mathx.Float32 {
		t.Fatalf("ConfiguredPrecision = %v, want Float32", got)
	}
	if got := srv.ActivePrecision(); got != mathx.Float64 {
		t.Fatalf("ActivePrecision = %v, want Float64 (gate must refuse the tier)", got)
	}
	if n := reg.Counter("core.precision_fallbacks").Value(); n != 1 {
		t.Fatalf("precision_fallbacks = %d, want 1", n)
	}
	if h := srv.Health(); h != Degraded {
		t.Fatalf("Health = %v, want Degraded after a refused tier", h)
	}

	// Refused tier or not, estimates must be the exact float64 values.
	ref := gateEstimator(t, tab)
	refSrv := NewServer(ref, ServeConfig{MaxBatch: 1})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		q := dataQuery(tab, rng, 0.01)
		got, err := srv.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSrv.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("query %d: refused-tier estimate %v differs from float64 %v", i, got, want)
		}
	}

	// Reconfiguring retries the gate from scratch; the same model refuses
	// again, deterministically.
	srv.SetPrecision(mathx.Float32)
	if n := reg.Counter("core.precision_fallbacks").Value(); n != 2 {
		t.Fatalf("precision_fallbacks after retry = %d, want 2", n)
	}
	if got := srv.ActivePrecision(); got != mathx.Float64 {
		t.Fatalf("ActivePrecision after retry = %v, want Float64", got)
	}
	// Explicitly requesting Float64 clears nothing retroactively but serves
	// the exact path without another fallback event.
	srv.SetPrecision(mathx.Float64)
	if n := reg.Counter("core.precision_fallbacks").Value(); n != 2 {
		t.Fatalf("precision_fallbacks after Float64 = %d, want 2", n)
	}
}

// TestPrecisionCheckpointRoundTrip: the configured precision rides in the
// checkpoint frame's meta word, so a restored estimator republishes the
// same tier and serves bit-identical estimates.
func TestPrecisionCheckpointRoundTrip(t *testing.T) {
	tab := buildClusteredTable(t, 500, 41)
	est, err := Build(tab, Config{Mode: Heuristic, SampleSize: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(est, ServeConfig{MaxBatch: 1, Precision: mathx.Float32})
	if got := srv.ActivePrecision(); got != mathx.Float32 {
		t.Fatalf("ActivePrecision = %v, want Float32", got)
	}
	rng := rand.New(rand.NewSource(43))
	qs := make([]query.Range, 24)
	want := make([]float64, len(qs))
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 1.2)
		if want[i], err = srv.Estimate(qs[i]); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "prec.ckpt")
	if err := srv.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	re, err := RestoreCheckpoint(path, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.ConfiguredPrecision(); got != mathx.Float32 {
		t.Fatalf("restored ConfiguredPrecision = %v, want Float32", got)
	}
	if got := re.ActivePrecision(); got != mathx.Float32 {
		t.Fatalf("restored ActivePrecision = %v, want Float32", got)
	}
	reSrv := NewServer(re, ServeConfig{MaxBatch: 1, Precision: re.ConfiguredPrecision()})
	for i, q := range qs {
		got, err := reSrv.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Errorf("query %d: restored estimate %v not bit-identical to %v", i, got, want[i])
		}
	}
}

// TestPrecisionRestoreUnknownByte: a checkpoint whose precision byte is not
// a current tier — 2 (the retired int16 tier) or 0xff — restores at
// Float64, serves bit-identically to the Float64 model that wrote it, and
// checkpoints Float64 back rather than the unknown byte.
func TestPrecisionRestoreUnknownByte(t *testing.T) {
	tab := buildClusteredTable(t, 500, 47)
	est, err := Build(tab, Config{Mode: Heuristic, SampleSize: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(est, ServeConfig{MaxBatch: 1})
	rng := rand.New(rand.NewSource(53))
	qs := make([]query.Range, 16)
	want := make([]float64, len(qs))
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 1.2)
		if want[i], err = srv.Estimate(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "f64.ckpt")
	if err := srv.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	var st chkState
	if _, err := checkpoint.ReadFileMeta(path, &st); err != nil {
		t.Fatal(err)
	}
	for _, meta := range []uint32{2, 0xff} {
		p := filepath.Join(dir, fmt.Sprintf("meta%d.ckpt", meta))
		if err := checkpoint.WriteFileMeta(p, &st, meta, nil); err != nil {
			t.Fatal(err)
		}
		re, err := RestoreCheckpoint(p, tab, nil)
		if err != nil {
			t.Fatalf("meta %#x: %v", meta, err)
		}
		if got := re.ConfiguredPrecision(); got != mathx.Float64 {
			t.Fatalf("meta %#x: ConfiguredPrecision = %v, want Float64", meta, got)
		}
		if got := re.ActivePrecision(); got != mathx.Float64 {
			t.Fatalf("meta %#x: ActivePrecision = %v, want Float64", meta, got)
		}
		reSrv := NewServer(re, ServeConfig{MaxBatch: 1})
		for i, q := range qs {
			got, err := reSrv.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Errorf("meta %#x query %d: estimate %v not bit-identical to float64 %v", meta, i, got, want[i])
			}
		}
		back := filepath.Join(dir, "back.ckpt")
		if err := reSrv.Checkpoint(back); err != nil {
			t.Fatal(err)
		}
		var st2 chkState
		if m, err := checkpoint.ReadFileMeta(back, &st2); err != nil || m != 0 {
			t.Fatalf("meta %#x: re-checkpointed meta %#x (err %v), want 0", meta, m, err)
		}
	}
}
