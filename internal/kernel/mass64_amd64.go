package kernel

import "math"

// useVector64 selects the vector loops of the exact-mode float64 mass
// kernels (mass64.go). It is decided once: the CPU must meet the float32
// loop's requirements (useAVX512), and math.Exp must be running the FMA
// sequence the loops replay, which math picks when the CPU has AVX and FMA
// and GODEBUG has not switched either off. math.Exp(0.375) tells the two
// sequences apart: the FMA one rounds to expFMAProbe, the other one ulp
// below.
var useVector64 = useAVX512 && math.Float64bits(math.Exp(0.375)) == expFMAProbe

const expFMAProbe = 0x3ff747a513dbef6b

// erf64Rows holds the coefficients of math.erf's four rational
// approximations, row k holding the coefficients of s^k: numerators of
// ranges A–D (pp, pa, ra, rb) in lanes 0–3 and denominators (qq, qa, sa,
// sb, each with its leading 1) in lanes 4–7. Rows past a polynomial's
// degree are zero. The literals are math/erf.go's.
var erf64Rows = func() (t [9][8]float64) {
	num := [4][]float64{
		{ // pp: erf on [0, 0.84375)
			1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
			-5.77027029648944159157e-03, -2.37630166566501626084e-05,
		},
		{ // pa: erf on [0.84375, 1.25)
			-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
			3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
			-2.16637559486879084300e-03,
		},
		{ // ra: erfc on [1.25, 1/0.35)
			-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
			-6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
			-8.12874355063065934246e+01, -9.81432934416914548592e+00,
		},
		{ // rb: erfc on [1/0.35, 6)
			-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
			-1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
			-4.83519191608651397019e+02,
		},
	}
	den := [4][]float64{
		{
			1, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
			1.32494738004321644526e-04, -3.96022827877536812320e-06,
		},
		{
			1, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
			1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02,
		},
		{
			1, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
			6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
			6.57024977031928170135e+00, -6.04244152148580987438e-02,
		},
		{
			1, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
			3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
			-2.24409524465858183362e+01,
		},
	}
	for r := range num {
		for k, c := range num[r] {
			t[k][r] = c
		}
		for k, c := range den[r] {
			t[k][4+r] = c
		}
	}
	return t
}()

// gaussianMass64AVX512 is the vector form of gaussianMassFillGo over the
// first n rows, n a multiple of 8; dst may be col.
//
//go:noescape
func gaussianMass64AVX512(dst, col *float64, n int, l, u, inv float64)

// gaussianMassGrad64AVX512 is the vector form of gaussianMassGradFillGo
// over the first n rows, n a multiple of 8.
//
//go:noescape
func gaussianMassGrad64AVX512(mdst, gdst, col *float64, n int, l, u, inv, c1, c2 float64)

// compressLive64 packs col[i] of the rows i < n with dst[i] ≠ 0 into buf
// in row order and returns their count; mulLive64 multiplies those rows of
// dst by the packed values in buf. n is a multiple of 8.
//
//go:noescape
func compressLive64(buf, dst, col *float64, n int) int

//go:noescape
func mulLive64(dst, buf *float64, n int)

// erfAVX512 and expAVX512 replace x[i] by math.Erf(x[i]) and
// math.Exp(x[i]) for i < n, n a multiple of 16 and 8 respectively: the
// vector erf and exp on their own, for the sweeps against package math.
//
//go:noescape
func erfAVX512(x *float64, n int)

//go:noescape
func expAVX512(x *float64, n int)
