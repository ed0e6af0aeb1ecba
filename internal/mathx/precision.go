package mathx

// Precision selects the numeric tier the fused serving kernels read the
// sample through. It lives next to the erf Mode because the two knobs are
// resolved together on the serving hot path: a snapshot pins one (Precision,
// kde.View) exactly like it pins the other (erf mode), so every estimate
// served from one snapshot sees one consistent arithmetic.
//
// Unlike Mode there is no process-global switch: precision is configured
// per estimator (core.ServeConfig) and changes only by publishing a new
// snapshot, never mid-flight.
type Precision uint8

const (
	// Float64 reads the full-width columnar mirror — the default, and
	// bit-identical to the pre-tier serving path.
	Float64 Precision = iota
	// Float32 reads a float32 copy of the columns with float32 kernel
	// arithmetic (FastErf32) and float64 partial-sum accumulation. Error
	// contract: max relative estimate error ≤ 1e-5 against Float64,
	// verified at publish time (core.precisionVerify).
	Float32
)

// String implements fmt.Stringer with the CLI flag grammar.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return "precision(?)"
	}
}

// ParsePrecision maps the textual knob ("float64", "float32")
// to a Precision; the empty string is the Float64 default.
func ParsePrecision(s string) (Precision, bool) {
	switch s {
	case "float64", "":
		return Float64, true
	case "float32":
		return Float32, true
	}
	return Float64, false
}

// ElementSize returns the bytes per sample value the tier streams — the
// numerator of the bytes-moved-per-query accounting in the benchmarks and
// the simulated device's transfer model.
func (p Precision) ElementSize() int {
	switch p {
	case Float32:
		return 4
	default:
		return 8
	}
}
