package kernel

import (
	"math"
	"math/rand"
	"testing"

	"kdesel/internal/mathx"
)

// TestErf32MatchesFastErf32 pins the hand-inlined kernel evaluation to
// mathx.FastErf32 bit for bit on finite nonzero inputs — the two copies of
// the table evaluation must never drift apart. The documented divergences
// (±0, NaN) are pinned explicitly.
func TestErf32MatchesFastErf32(t *testing.T) {
	tab := mathx.Erf32Table()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500_000; i++ {
		x := float32((rng.Float64() - 0.5) * 12)
		if x == 0 {
			continue
		}
		got, want := erf32(tab, x), mathx.FastErf32(x)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("erf32(%v) = %v, FastErf32 = %v: copies drifted", x, got, want)
		}
	}
	// Boundary and tail arguments, including ulp-adjacent ones.
	for k := 0; k <= mathx.Erf32Segs; k++ {
		b := float32(k) / mathx.Erf32Scale
		for _, x := range []float32{b, -b, math.Nextafter32(b, 1e9), math.Nextafter32(b, -1e9)} {
			if x == 0 {
				continue
			}
			got, want := erf32(tab, x), mathx.FastErf32(x)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("erf32(%v) = %v, FastErf32 = %v at segment boundary", x, got, want)
			}
		}
	}
	// Documented divergences: ±0 evaluates the segment-0 cubic (within the
	// erf error budget of erf(0)=0); NaN saturates instead of propagating.
	if y := erf32(tab, 0); math.Abs(float64(y)) > 1e-6 {
		t.Fatalf("erf32(0) = %v, want |y| ≤ 1e-6", y)
	}
	if y := erf32(tab, float32(math.NaN())); y != 1 && y != -1 {
		t.Fatalf("erf32(NaN) = %v, want saturated ±1", y)
	}
	if y := erf32(tab, float32(math.Inf(1))); y != 1 {
		t.Fatalf("erf32(+Inf) = %v, want 1", y)
	}
	if y := erf32(tab, float32(math.Inf(-1))); y != -1 {
		t.Fatalf("erf32(-Inf) = %v, want -1", y)
	}
}

// TestGaussianMass32Columnar checks the float32 fill/mul kernels against
// the scalar GaussianMassScaled32 (bit-identical) and against the float64
// kernels (within the erf error budget propagated through the mass).
func TestGaussianMass32Columnar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 257 // off power-of-two to catch indexing slips
	col64 := make([]float64, n)
	col32 := make([]float32, n)
	for i := range col64 {
		col64[i] = rng.NormFloat64()
		col32[i] = float32(col64[i])
	}
	for trial := 0; trial < 20; trial++ {
		h := 0.05 + rng.Float64()
		l := rng.NormFloat64() - 0.5
		u := l + rng.Float64()*2
		inv64, _, _ := GaussianConsts(h)
		inv := GaussianInv32(h)
		l32, u32 := float32(l), float32(u)

		dst := make([]float32, n)
		GaussianMassFill32(dst, col32, l32, u32, inv)
		ref := make([]float64, n)
		GaussianMassFill(ref, col64, l, u, inv64, false)
		for i := range dst {
			if want := GaussianMassScaled32(l32, u32, col32[i], inv); dst[i] != want {
				t.Fatalf("Fill32[%d] = %v, scalar = %v: not bit-identical", i, dst[i], want)
			}
			// Mass is a difference of two erfs, each within ~1e-6 of the true
			// value; the float64 reference differs additionally by the float32
			// rounding of the inputs. 1e-5 absolute covers both with margin.
			if math.Abs(float64(dst[i])-ref[i]) > 1e-5 {
				t.Fatalf("Fill32[%d] = %v, float64 ref = %v", i, dst[i], ref[i])
			}
		}

		// Mul32 on an all-ones accumulator equals Fill32; zeros stay zero.
		acc := make([]float32, n)
		for i := range acc {
			acc[i] = 1
		}
		acc[3], acc[100] = 0, 0
		GaussianMassMul32(acc, col32, l32, u32, inv)
		for i := range acc {
			switch {
			case i == 3 || i == 100:
				if acc[i] != 0 {
					t.Fatalf("Mul32 revived zero row %d: %v", i, acc[i])
				}
			case acc[i] != dst[i]:
				t.Fatalf("Mul32[%d] = %v, want Fill32 value %v", i, acc[i], dst[i])
			}
		}
	}
}

func benchCols(n int) ([]float64, []float32) {
	rng := rand.New(rand.NewSource(42))
	c64 := make([]float64, n)
	c32 := make([]float32, n)
	for i := range c64 {
		c64[i] = rng.NormFloat64()
		c32[i] = float32(c64[i])
	}
	return c64, c32
}

func BenchmarkGaussianMassFill(b *testing.B) {
	const n = 4096
	c64, c32 := benchCols(n)
	d64 := make([]float64, n)
	d32 := make([]float32, n)
	inv64, _, _ := GaussianConsts(0.3)
	inv := GaussianInv32(0.3)
	b.Run("float64-fast", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			GaussianMassFill(d64, c64, -0.5, 0.5, inv64, true)
		}
	})
	b.Run("float32", func(b *testing.B) {
		b.SetBytes(n * 4)
		for i := 0; i < b.N; i++ {
			GaussianMassFill32(d32, c32, -0.5, 0.5, inv)
		}
	})
}

func BenchmarkGaussianMassMul(b *testing.B) {
	const n = 4096
	c64, c32 := benchCols(n)
	d64 := make([]float64, n)
	d32 := make([]float32, n)
	inv64, _, _ := GaussianConsts(0.3)
	inv := GaussianInv32(0.3)
	reset32 := func() {
		for i := range d32 {
			d32[i] = 1
		}
	}
	b.Run("float64-fast", func(b *testing.B) {
		for i := range d64 {
			d64[i] = 1
		}
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			GaussianMassMul(d64, c64, -0.5, 0.5, inv64, true)
		}
	})
	b.Run("float32", func(b *testing.B) {
		reset32()
		b.SetBytes(n * 4)
		for i := 0; i < b.N; i++ {
			GaussianMassMul32(d32, c32, -0.5, 0.5, inv)
		}
	})
}
