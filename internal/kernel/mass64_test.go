package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// erf64Bounds are the range boundaries of math.erf: its tiny-path split
// VeryTiny (0x0080000000000000 = 2^-1015), its five ranges' upper ends
// (2^-28, 0.84375, 1.25, 1/0.35, 6), the argument ±0 and the smallest
// normal 2^-1022, below which erf's arguments are subnormal.
var erf64Bounds = []float64{0, 0x1p-1022, 0x1p-1015, 0x1p-28, 0.84375, 1.25, 1 / 0.35, 6}

// around returns x and its 4 nearest float64 neighbours on either side.
func around(x float64) []float64 {
	v := []float64{x}
	lo, hi := x, x
	for k := 0; k < 4; k++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		v = append(v, lo, hi)
	}
	return v
}

// erf64Specials are the erf arguments the vector erf must treat exactly as
// math.Erf does: every range boundary ±4 ulps with both signs, signed
// zeros, subnormals, the float64 extremes, infinities and NaNs.
var erf64Specials = func() []float64 {
	var v []float64
	for _, b := range erf64Bounds {
		for _, x := range around(b) {
			v = append(v, x, -x)
		}
	}
	return append(v, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8_0000_0000_0002), math.Float64frombits(0x7ff0_0000_0000_0001))
}()

// exp64Specials are exp arguments at math.archExp's branch points: the
// denormal results of [−745.2, −708.4], the underflow to +0 below, the
// overflow threshold 709.78, infinities and NaNs.
var exp64Specials = func() []float64 {
	v := []float64{-745.2, -745.13321910194122, -745.1332191019411, -744.44, -740, -720.5, -708.4,
		-708.39641853226408, -708.3964185322641, -708, -1e10, -math.MaxFloat64, 709.78,
		7.09782712893384e+02, 710, 1e10, math.MaxFloat64, 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0003)}
	return append(v, around(7.09782712893384e+02)...)
}()

// mass64DstSpecials are running products GaussianMassMul must handle row
// by row: the ±0 rows it skips and subnormal, huge and non-finite live
// ones.
var mass64DstSpecials = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-300, 5e-324, -2e-310,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// checkMass64 runs the dispatched exact-mode GaussianMassFill,
// GaussianMassMul and GaussianMassGradFill (vector maps where the CPU has
// them) against the pure-Go loops and fails on any difference in output
// bits. dst0 seeds the Mul accumulator.
func checkMass64(t testing.TB, col, dst0 []float64, l, u, inv, c1, c2 float64) {
	t.Helper()
	n := len(col)
	got, want := make([]float64, n), make([]float64, n)
	gotG, wantG := make([]float64, n), make([]float64, n)
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d row %d: col=%v dst=%v l=%v u=%v inv=%v c1=%v c2=%v: got %v (%#x), Go loop %v (%#x)",
					what, n, i, col[i], dst0[i], l, u, inv, c1, c2,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	GaussianMassFill(got, col, l, u, inv, false)
	gaussianMassFillGo(want, col, l, u, inv)
	same("Fill", got, want)
	copy(got, dst0)
	copy(want, dst0)
	GaussianMassMul(got, col, l, u, inv, false)
	gaussianMassMulGo(want, col, l, u, inv)
	same("Mul", got, want)
	GaussianMassGradFill(got, gotG, col, l, u, inv, c1, c2, false)
	gaussianMassGradFillGo(want, wantG, col, l, u, inv, c1, c2)
	same("GradFill mass", got, want)
	same("GradFill derivative", gotG, wantG)
}

// TestGaussianMass64SIMDMatchesGo pins the dispatched exact-mode float64
// mass kernels to the pure-Go loops bit for bit, NaN payloads included,
// at every length 1..300 — so every partial 8-row group and every partial
// staging block — on ordinary arguments and on the edge values above.
func TestGaussianMass64SIMDMatchesGo(t *testing.T) {
	if useVector64 {
		t.Log("vector path: AVX-512F with FMA exp")
	} else {
		t.Log("vector path: none on this CPU; the dispatch runs the Go loops")
	}
	rng := rand.New(rand.NewSource(5))
	pick := func(specials []float64, lo, hi float64) float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return lo + rng.Float64()*(hi-lo)
	}
	invs := []float64{1, 8, 0, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	c2s := []float64{1, -1, 0, 1e300, math.Inf(1), math.NaN()}
	for n := 1; n <= 300; n++ {
		col, dst := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 6; trial++ {
			l, u := pick(erf64Specials, -2, 1), pick(erf64Specials, -1, 2)
			h := 0.02 + rng.Float64()
			inv, c1, c2 := GaussianConsts(h)
			if trial%2 == 1 {
				inv, c2 = invs[rng.Intn(len(invs))], c2s[rng.Intn(len(c2s))]
			}
			for i := range col {
				col[i] = pick(erf64Specials, -4, 4)
				dst[i] = pick(mass64DstSpecials, 0, 1)
			}
			checkMass64(t, col, dst, l, u, inv, c1, c2)
		}
	}
	// With l = u = 0 and inv = 1 every column value t is an erf argument
	// (−t) and, with c2 = ±1, an exp argument (∓t²) too; −t² hits archExp's
	// denormal and underflow paths, +t² its overflow. With c2 = +Inf a row
	// at t = 0 makes −0·0·Inf = NaN.
	var col []float64
	col = append(col, erf64Specials...)
	for _, x := range exp64Specials {
		col = append(col, math.Sqrt(math.Abs(x)))
	}
	dst := make([]float64, len(col))
	for i := range dst {
		dst[i] = mass64DstSpecials[i%len(mass64DstSpecials)]
	}
	for _, c2 := range []float64{1, -1, math.Inf(1)} {
		for _, u := range []float64{0, 1, -1, 6, math.Inf(1)} {
			checkMass64(t, col, dst, 0, u, 1, 1, c2)
		}
	}
}

// sweep64 checks vec (a vector map) against ref on xs, by bits.
func sweep64(t *testing.T, name string, vec func(*float64, int), ref func(float64) float64, xs []float64) {
	t.Helper()
	ys := make([]float64, (len(xs)+15)&^15)
	copy(ys, xs)
	vec(&ys[0], len(ys))
	for i, x := range xs {
		if want := ref(x); math.Float64bits(ys[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v [%#x]) = %v (%#x), math: %v (%#x)", name, x, math.Float64bits(x),
				ys[i], math.Float64bits(ys[i]), want, math.Float64bits(want))
		}
	}
}

// TestErfExp64SIMDMatchesMath sweeps the vector maps themselves against
// math.Erf and math.Exp: the special arguments, then 10^7 random
// arguments of random sign in each of erf's six ranges (and past them) and
// in each of exp's four regimes (underflow, denormal, normal, overflow);
// 2^14 per range under the race detector.
func TestErfExp64SIMDMatchesMath(t *testing.T) {
	if !useVector64 {
		t.Skip("no vector erf and exp on this CPU")
	}
	t.Log("vector path: AVX-512F with FMA exp")
	sweep64(t, "erf", erfAVX512, math.Erf, erf64Specials)
	sweep64(t, "exp", expAVX512, math.Exp, exp64Specials)
	sweep64(t, "exp", expAVX512, math.Exp, erf64Specials)
	perRange, batch := 10_000_000, 1<<14
	if raceEnabled {
		perRange = batch
	}
	rng := rand.New(rand.NewSource(9))
	// uniform draws from [lo, hi); logUniform draws a float64 uniformly
	// from those in [lo, hi) — for 0 < lo < hi nearly log-uniform, as every
	// binade holds equally many — with a random sign.
	uniform := func(lo, hi float64) func() float64 {
		return func() float64 { return lo + rng.Float64()*(hi-lo) }
	}
	logUniform := func(lo, hi float64) func() float64 {
		b, span := math.Float64bits(lo), int64(math.Float64bits(hi)-math.Float64bits(lo))
		return func() float64 {
			return math.Float64frombits(b+uint64(rng.Int63n(span))) * float64(1-2*rng.Intn(2))
		}
	}
	withSign := func(sign float64, g func() float64) func() float64 {
		return func() float64 { return math.Copysign(g(), sign) }
	}
	xs := make([]float64, batch)
	run := func(name string, vec func(*float64, int), ref func(float64) float64, gen func() float64) {
		for done := 0; done < perRange; done += batch {
			for i := range xs {
				xs[i] = gen()
			}
			sweep64(t, name, vec, ref, xs)
		}
	}
	for _, g := range []func() float64{
		logUniform(0x1p-1074, 0x1p-28), logUniform(0x1p-28, 0.84375), logUniform(0.84375, 1.25),
		logUniform(1.25, 1/0.35), logUniform(1/0.35, 6), logUniform(6, math.MaxFloat64),
	} {
		run("erf", erfAVX512, math.Erf, g)
	}
	for _, g := range []func() float64{
		withSign(-1, logUniform(745.2, math.MaxFloat64)), uniform(-745.2, -708.4), uniform(-708.4, 709.78),
		withSign(1, logUniform(709.78, math.MaxFloat64)),
	} {
		run("exp", expAVX512, math.Exp, g)
	}
}

// FuzzGaussianMass64 is TestGaussianMass64SIMDMatchesGo's comparison on
// fuzzed inputs: data packs (col, dst) float64 bit pairs, 16 bytes a row.
// Every input is in the domain of bit-identity. Run it with
//
//	go test -run '^$' -fuzz FuzzGaussianMass64 ./internal/kernel
func FuzzGaussianMass64(f *testing.F) {
	rows := func(col, dst []float64) []byte {
		b := make([]byte, 0, 16*len(col))
		for i := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col[i]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(dst[i%len(dst)]))
		}
		return b
	}
	rng := rand.New(rand.NewSource(3))
	col := make([]float64, 37)
	for i := range col {
		col[i] = rng.NormFloat64()
	}
	inv, c1, c2 := GaussianConsts(0.3)
	f.Add(rows(col, []float64{1, 0.25, 0}), -0.5, 0.5, inv, c1, c2)
	f.Add(rows(erf64Specials, mass64DstSpecials), 0.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(rows(exp64Specials, mass64DstSpecials), -1.0, math.Inf(1), math.Inf(1), 1.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, l, u, inv, c1, c2 float64) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		col, dst := make([]float64, n), make([]float64, n)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkMass64(t, col, dst, l, u, inv, c1, c2)
	})
}

// zeroRuns returns n running products of 1 and 0 whose zero rows come in
// runs, from a two-state Markov chain: a zero row is followed by another
// with probability a, a live row by another with probability b.
func zeroRuns(n int, a, b float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, n)
	live := true
	for i := range d {
		if live {
			live = rng.Float64() < b
		} else {
			live = rng.Float64() >= a
		}
		if live {
			d[i] = 1
		}
	}
	return d
}

// BenchmarkGaussianMassMulZeroRows times the exact-mode Mul on a 256-row
// chunk whose running product has zero rows in the pattern the end-to-end
// workloads give it. Counted there, 36 % of the rows reaching Mul on
// probe-d2 are zero, in 3 % of the 8-row blocks all of them; on
// selftune-d5 77 %, in 51 % of the blocks. The chain's a and b are fitted
// to those two shares.
func BenchmarkGaussianMassMulZeroRows(b *testing.B) {
	const n = 256
	col, _ := benchCols(n)
	inv, _, _ := GaussianConsts(0.3)
	dst := make([]float64, n)
	for _, s := range []struct {
		name string
		a, b float64
	}{{"probe-d2", 0.702, 0.834}, {"selftune-d5", 0.943, 0.808}} {
		pat := zeroRuns(n, s.a, s.b, 7)
		for _, k := range []struct {
			name string
			mul  func()
		}{
			{"float64-exact", func() { GaussianMassMul(dst, col, -0.5, 0.5, inv, false) }},
			{"float64-exact-go", func() { gaussianMassMulGo(dst, col, -0.5, 0.5, inv) }},
		} {
			b.Run(s.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(dst, pat)
					k.mul()
				}
				reportNsPerRow(b, n)
			})
		}
	}
}

// BenchmarkGaussianMassGradFill times the exact-mode mass-and-derivative
// fill on a 64-row gradient tile (kde.gradTileRows), dispatched and pure
// Go, and the fast mode.
func BenchmarkGaussianMassGradFill(b *testing.B) {
	const n = 64
	c64, _ := benchCols(n)
	m, g := make([]float64, n), make([]float64, n)
	inv, c1, c2 := GaussianConsts(0.3)
	for _, k := range []struct {
		name string
		fill func()
	}{
		{"float64-exact", func() { GaussianMassGradFill(m, g, c64, -0.5, 0.5, inv, c1, c2, false) }},
		{"float64-exact-go", func() { gaussianMassGradFillGo(m, g, c64, -0.5, 0.5, inv, c1, c2) }},
		{"float64-fast", func() { GaussianMassGradFill(m, g, c64, -0.5, 0.5, inv, c1, c2, true) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fill()
			}
			reportNsPerRow(b, n)
		})
	}
}
