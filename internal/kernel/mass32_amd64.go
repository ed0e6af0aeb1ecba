package kernel

import "kdesel/internal/mathx"

// useAVX512 selects the vector loop of GaussianMassFill32/GaussianMassMul32.
// It is decided once, from CPUID and XGETBV: the CPU must implement
// AVX-512F and POPCNT, and the OS must save the opmask and full ZMM state.
var useAVX512 = hasAVX512()

// erf32SoA is mathx.Erf32Table transposed to structure-of-arrays: c0 of
// all 32 segments, then c1, c2, c3. Each coefficient row is two ZMM
// registers, so one VPERMT2PS looks up a coefficient for 16 lanes.
var erf32SoA = func() (t [4 * mathx.Erf32Segs]float32) {
	tab := mathx.Erf32Table()
	for k := 0; k < mathx.Erf32Segs; k++ {
		for c := 0; c < 4; c++ {
			t[c*mathx.Erf32Segs+k] = tab[k*4+c]
		}
	}
	return t
}()

func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, popcnt = 1 << 27, 1 << 23
	if ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	// XCR0 bits 1–2 (XMM, YMM) and 5–7 (opmask, ZMM0–15 upper halves,
	// ZMM16–31) must all be OS-enabled.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gaussianMass32AVX512 is the vector form of gaussianMassFill32Go (mul
// false) and gaussianMassMul32Go (mul true) over the first n rows, n a
// positive multiple of 16. Returns the nonzero count of those rows.
//
//go:noescape
func gaussianMass32AVX512(dst, col *float32, n int, l, u, inv float32, mul bool) int
