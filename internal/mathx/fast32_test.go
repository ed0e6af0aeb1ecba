package mathx

import (
	"math"
	"testing"
)

// erf32MaxAbsErr is the contract FastErf32 must prove: the float32 serving
// tier advertises |erf error| ≤ 1e-6 per evaluation. The measured error is
// ~4.3e-7 (cubic fit residual plus float32 rounding), so the bound has >2×
// margin. This test must never be skipped: the Makefile precision-accuracy
// gate greps for it.
const erf32MaxAbsErr = 1e-6

// TestFastErf32Accuracy sweeps FastErf32 against math.Erf densely across
// and beyond every table segment and proves the advertised error bound.
func TestFastErf32Accuracy(t *testing.T) {
	const n = 2_000_000
	worst, at := 0.0, 0.0
	for i := 0; i <= n; i++ {
		x := float32(-6 + 12*float64(i)/n)
		if e := math.Abs(float64(FastErf32(x)) - math.Erf(float64(x))); e > worst {
			worst, at = e, float64(x)
		}
	}
	// Hammer the segment boundaries with ulp-adjacent arguments too: the
	// uniform sweep can step over a discontinuity at a boundary.
	for k := 0; k <= Erf32Segs; k++ {
		b := float32(k) / Erf32Scale
		for _, x := range []float32{
			b, math.Nextafter32(b, -1e9), math.Nextafter32(b, 1e9), -b,
			math.Nextafter32(-b, -1e9), math.Nextafter32(-b, 1e9),
		} {
			if e := math.Abs(float64(FastErf32(x)) - math.Erf(float64(x))); e > worst {
				worst, at = e, float64(x)
			}
		}
	}
	if worst > erf32MaxAbsErr {
		t.Fatalf("max |FastErf32-math.Erf| = %.3g at x=%v, want ≤ %g", worst, at, erf32MaxAbsErr)
	}
	t.Logf("max |FastErf32-math.Erf| = %.3g at x=%v (bound %g)", worst, at, erf32MaxAbsErr)
}

// TestFastErf32OddSymmetry checks FastErf32(-x) == -FastErf32(x) exactly:
// the sign is factored out before the table lookup, so symmetry must be
// bitwise.
func TestFastErf32OddSymmetry(t *testing.T) {
	for i := 0; i <= 100_000; i++ {
		x := float32(5 * float64(i) / 100_000)
		p, n := FastErf32(x), FastErf32(-x)
		if math.Float32bits(p) != math.Float32bits(-n) {
			t.Fatalf("FastErf32(%v)=%v but FastErf32(%v)=%v: not exactly odd", x, p, -x, n)
		}
	}
}

// TestFastErf32Range checks |FastErf32| ≤ 1 on a dense grid — the property
// the estimator's [0,1] clamp relies on — and that the output is monotone
// up to the approximation error.
func TestFastErf32Range(t *testing.T) {
	prev := float32(math.Inf(-1))
	for i := 0; i <= 1_000_000; i++ {
		x := float32(-5 + 10*float64(i)/1_000_000)
		y := FastErf32(x)
		if y < -1 || y > 1 {
			t.Fatalf("FastErf32(%v) = %v escapes [-1,1]", x, y)
		}
		if y < prev-2*erf32MaxAbsErr {
			t.Fatalf("FastErf32 decreases beyond error bound at x=%v: %v < %v", x, y, prev)
		}
		if y > prev {
			prev = y
		}
	}
}

// TestFastErf32Specials pins the IEEE edge cases: NaN propagates (it must
// never reach the segment-index conversion), ±Inf and the saturated tail
// return ±1, and 0 stays within the error bound of erf(0) = 0.
func TestFastErf32Specials(t *testing.T) {
	if y := FastErf32(float32(math.NaN())); y == y {
		t.Fatalf("FastErf32(NaN) = %v, want NaN", y)
	}
	for _, c := range []struct{ in, want float32 }{
		{float32(math.Inf(1)), 1}, {float32(math.Inf(-1)), -1},
		{4, 1}, {-4, -1}, {1e30, 1}, {-1e30, -1},
	} {
		if y := FastErf32(c.in); y != c.want {
			t.Fatalf("FastErf32(%v) = %v, want %v", c.in, y, c.want)
		}
	}
	if y := FastErf32(0); math.Abs(float64(y)) > erf32MaxAbsErr {
		t.Fatalf("FastErf32(0) = %v, want within %g of 0", y, erf32MaxAbsErr)
	}
}

// TestParsePrecision covers the CLI knob mapping and the element-size
// accounting the benchmarks and the device transfer model rely on.
func TestParsePrecision(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"float64", Float64, true}, {"", Float64, true},
		{"float32", Float32, true}, {"quantized", Float64, false},
		{"FLOAT32", Float64, false}, {"f32", Float64, false},
	} {
		got, ok := ParsePrecision(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParsePrecision(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
	for _, c := range []struct {
		p    Precision
		size int
	}{
		{Float64, 8}, {Float32, 4}, {Precision(2), 8}, {Precision(9), 8},
	} {
		if got := c.p.ElementSize(); got != c.size {
			t.Fatalf("%v.ElementSize() = %d, want %d", c.p, got, c.size)
		}
	}
	for _, p := range []Precision{Float64, Float32, Precision(2), Precision(9)} {
		if p.String() == "" {
			t.Fatalf("Precision(%d).String() empty", p)
		}
	}
}

func BenchmarkFastErf32(b *testing.B) {
	xs := erfBenchArgs()
	xs32 := make([]float32, len(xs))
	for i, x := range xs {
		xs32[i] = float32(x)
	}
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += FastErf32(xs32[i&1023])
	}
	sinkErf32 = acc
}

var sinkErf32 float32
