package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

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

// mass32Specials are the edge values the vector loop must treat exactly as
// the Go loops do: signed zeros, subnormals, the float32 extremes,
// infinities and NaNs of either sign (a NaN bound saturates by its sign
// bit), and the tail and segment boundaries of the erf table
// with their float32 neighbours.
var mass32Specials = func() []float32 {
	inf := float32(math.Inf(1))
	v := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		math.MaxFloat32, -math.MaxFloat32, inf, -inf, float32(math.NaN()),
		math.Float32frombits(0xffc0_0001), math.Float32frombits(0x7f80_0001), // −NaN, signaling NaN
	}
	for k := 0; k <= mathx.Erf32Segs; k++ {
		b := float32(k) / mathx.Erf32Scale
		v = append(v, b, -b, math.Nextafter32(b, 1e9), math.Nextafter32(-b, -1e9))
	}
	return v
}()

// mass32DstSpecials are running products GaussianMassMul32 must handle
// row by row: the ±0 rows it skips, products that land on either side of
// massFloor32, subnormals and non-finite values.
var mass32DstSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, massFloor32, -massFloor32,
	math.Nextafter32(massFloor32, 0), math.Nextafter32(massFloor32, 1), 1e-31, 2e-30,
	1e-40, math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// checkMass32 runs GaussianMassFill32 and GaussianMassMul32 (vector loop
// where the CPU has one) against the pure-Go loops and fails on any
// difference in output bits or nonzero count. dst0 seeds the Mul
// accumulator.
func checkMass32(t testing.TB, col, dst0 []float32, l, u, inv float32) {
	t.Helper()
	n := len(col)
	got, want := make([]float32, n), make([]float32, n)
	for _, mul := range []bool{false, true} {
		var gnz, wnz int
		if mul {
			copy(got, dst0)
			copy(want, dst0)
			gnz, wnz = GaussianMassMul32(got, col, l, u, inv), gaussianMassMul32Go(want, col, l, u, inv)
		} else {
			gnz, wnz = GaussianMassFill32(got, col, l, u, inv), gaussianMassFill32Go(want, col, l, u, inv)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("mul=%v n=%d row %d: col=%v dst=%v l=%v u=%v inv=%v: got %v (%#x), Go loop %v (%#x)",
					mul, n, i, col[i], dst0[i], l, u, inv, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		if gnz != wnz {
			t.Fatalf("mul=%v n=%d l=%v u=%v inv=%v: nonzero count %d, Go loop %d", mul, n, l, u, inv, gnz, wnz)
		}
	}
}

// TestGaussianMass32SIMDMatchesGo pins the dispatched float32 mass kernels
// to the pure-Go loops bit for bit, output and nonzero count, at every
// length 1..300 — so every remainder length after the 16-row vector blocks
// — on ordinary arguments and on the edge values above.
func TestGaussianMass32SIMDMatchesGo(t *testing.T) {
	if useAVX512 {
		t.Log("vector path: AVX-512F")
	} else {
		t.Log("vector path: none on this CPU; the dispatch runs the Go loops")
	}
	rng := rand.New(rand.NewSource(5))
	pick := func(specials []float32, lo, hi float64) float32 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(lo + rng.Float64()*(hi-lo))
	}
	invs := []float32{1, 8, GaussianInv32(0.05), GaussianInv32(1e-45), 0, math.MaxFloat32,
		math.SmallestNonzeroFloat32, float32(math.Inf(1))}
	for n := 1; n <= 300; n++ {
		col, dst := make([]float32, n), make([]float32, n)
		for trial := 0; trial < 6; trial++ {
			l, u := pick(mass32Specials, -2, 1), pick(mass32Specials, -1, 2)
			inv := GaussianInv32(0.02 + rng.Float64())
			if trial%2 == 1 {
				inv = invs[rng.Intn(len(invs))]
			}
			for i := range col {
				col[i] = pick(mass32Specials, -4, 4)
				dst[i] = pick(mass32DstSpecials, 0, 1)
			}
			checkMass32(t, col, dst, l, u, inv)
		}
	}
	// With l = 0 and inv = 1 every column value is an erf argument itself:
	// sweep all of them through every tail and segment boundary.
	col := append([]float32(nil), mass32Specials...)
	dst := make([]float32, len(col))
	for i := range dst {
		dst[i] = mass32DstSpecials[i%len(mass32DstSpecials)]
	}
	for _, u := range []float32{0, 1, -1, 4, float32(math.Inf(1))} {
		checkMass32(t, col, dst, 0, u, 1)
	}
}

// FuzzGaussianMass32 is TestGaussianMass32SIMDMatchesGo's comparison on
// fuzzed inputs: data packs (col, dst) float32 bit pairs, 8 bytes a row.
// Every inv that is not NaN is in the domain of bit-identity —
// GaussianInv32(h) is never NaN for h > 0 — as is every value of l, u,
// col and dst. Run it with
//
//	go test -run '^$' -fuzz FuzzGaussianMass32 ./internal/kernel
func FuzzGaussianMass32(f *testing.F) {
	rows := func(col, dst []float32) []byte {
		b := make([]byte, 0, 8*len(col))
		for i := range col {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(col[i]))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(dst[i%len(dst)]))
		}
		return b
	}
	rng := rand.New(rand.NewSource(3))
	col := make([]float32, 37)
	for i := range col {
		col[i] = float32(rng.NormFloat64())
	}
	f.Add(rows(col, []float32{1, 0.25, 0}), float32(-0.5), float32(0.5), GaussianInv32(0.3))
	f.Add(rows(mass32Specials, mass32DstSpecials), float32(0), float32(1), float32(1))
	f.Add(rows(mass32Specials, mass32DstSpecials), float32(-1), float32(math.Inf(1)), float32(math.Inf(1)))
	f.Fuzz(func(t *testing.T, data []byte, l, u, inv float32) {
		if inv != inv {
			t.Skip("NaN inv is outside the bit-identity domain")
		}
		n := len(data) / 8
		if n == 0 {
			return
		}
		col, dst := make([]float32, n), make([]float32, n)
		for i := range col {
			col[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i:]))
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		checkMass32(t, col, dst, l, u, inv)
	})
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

// reportNsPerRow adds the per-row cost of a benchmark that evaluates n rows
// per iteration.
func reportNsPerRow(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
}

// benchSink keeps the benchmarked nonzero counts live.
var benchSink int

// massFn32 is the signature of the float32 mass kernels and their Go loops.
type massFn32 = func(dst, col []float32, l, u, inv float32) int

func BenchmarkGaussianMassFill(b *testing.B) {
	const n = 4096
	c64, c32 := benchCols(n)
	d64 := make([]float64, n)
	d32 := make([]float32, n)
	inv64, _, _ := GaussianConsts(0.3)
	inv := GaussianInv32(0.3)
	for _, k := range []struct {
		name string
		fill func()
	}{
		{"float64-fast", func() { GaussianMassFill(d64, c64, -0.5, 0.5, inv64, true) }},
		{"float64-exact", func() { GaussianMassFill(d64, c64, -0.5, 0.5, inv64, false) }},
		{"float64-exact-go", func() { gaussianMassFillGo(d64, c64, -0.5, 0.5, inv64) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				k.fill()
			}
			reportNsPerRow(b, n)
		})
	}
	for _, k := range []struct {
		name string
		fill massFn32
	}{{"float32", GaussianMassFill32}, {"float32-go", gaussianMassFill32Go}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				benchSink = k.fill(d32, c32, -0.5, 0.5, inv)
			}
			reportNsPerRow(b, n)
		})
	}
}

// BenchmarkGaussianMassMul restores an all-ones accumulator before every
// iteration (a 16 KiB copy): repeated products would otherwise decay to
// exact zeros, and a loop that skips zero rows would then time only the
// skip.
func BenchmarkGaussianMassMul(b *testing.B) {
	const n = 4096
	c64, c32 := benchCols(n)
	d64, ones64 := make([]float64, n), make([]float64, n)
	d32, ones32 := make([]float32, n), make([]float32, n)
	for i := range ones64 {
		ones64[i], ones32[i] = 1, 1
	}
	inv64, _, _ := GaussianConsts(0.3)
	inv := GaussianInv32(0.3)
	for _, k := range []struct {
		name string
		mul  func()
	}{
		{"float64-fast", func() { GaussianMassMul(d64, c64, -0.5, 0.5, inv64, true) }},
		{"float64-exact", func() { GaussianMassMul(d64, c64, -0.5, 0.5, inv64, false) }},
		{"float64-exact-go", func() { gaussianMassMulGo(d64, c64, -0.5, 0.5, inv64) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				copy(d64, ones64)
				k.mul()
			}
			reportNsPerRow(b, n)
		})
	}
	for _, k := range []struct {
		name string
		mul  massFn32
	}{{"float32", GaussianMassMul32}, {"float32-go", gaussianMassMul32Go}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				copy(d32, ones32)
				benchSink = k.mul(d32, c32, -0.5, 0.5, inv)
			}
			reportNsPerRow(b, n)
		})
	}
}

// BenchmarkMass32Roofline times the float32 eq. 13 map the way the fused
// serving tier runs it (kde.fusedMassChunk32): per 256-row chunk one Fill,
// d−1 Muls and the serial float64 row sum, over an s-row d-dimensional
// sample, for the dispatched kernels ("simd") and the pure-Go loops
// ("go"). The sample is uniform on [0, 1]^d and the query is the centered
// box of side 0.56 with h = 0.3, so every row stays live through every
// dimension and ns/rowdim is the cost of one evaluated (row, dimension)
// pair. GB/s counts the column bytes streamed; sum% is the share of the
// time the row sum takes, measured by a separate sum-only pass.
func BenchmarkMass32Roofline(b *testing.B) {
	const chunk = 256
	paths := []struct {
		name      string
		fill, mul massFn32
	}{{"go", gaussianMassFill32Go, gaussianMassMul32Go}, {"simd", GaussianMassFill32, GaussianMassMul32}}
	inv := GaussianInv32(0.3)
	const lo, hi = 0.22, 0.78
	for _, d := range []int{2, 5, 8} {
		for _, s := range []int{4 << 10, 128 << 10} {
			rng := rand.New(rand.NewSource(1))
			cols := make([]float32, d*s)
			for i := range cols {
				cols[i] = rng.Float32()
			}
			acc := make([]float32, chunk)
			for _, p := range paths {
				b.Run(fmt.Sprintf("d%d/s%dKi/%s", d, s>>10, p.name), func(b *testing.B) {
					var sum float64
					for i := 0; i < b.N; i++ {
						for c := 0; c < s; c += chunk {
							p.fill(acc, cols[c:c+chunk], lo, hi, inv)
							for j := 1; j < d; j++ {
								p.mul(acc, cols[j*s+c:j*s+c+chunk], lo, hi, inv)
							}
							for _, v := range acc {
								sum += float64(v)
							}
						}
					}
					total := b.Elapsed()
					start := time.Now()
					for i := 0; i < b.N; i++ {
						for c := 0; c < s; c += chunk {
							for _, v := range acc {
								sum += float64(v)
							}
						}
					}
					sumDur := time.Since(start)
					benchSinkF = sum
					pairs := float64(b.N) * float64(s) * float64(d)
					b.ReportMetric(float64(total.Nanoseconds())/pairs, "ns/rowdim")
					b.ReportMetric(pairs*4/float64(total.Nanoseconds()), "GB/s")
					b.ReportMetric(100*sumDur.Seconds()/total.Seconds(), "sum%")
				})
			}
		}
	}
}

// benchSinkF keeps the benchmarked row sums live.
var benchSinkF float64
