package sample

import "math/rand"

// CountingSource wraps a math/rand source and counts how many times its
// state has advanced. Both model engines persist the count in their
// checkpoints so a restored model can fast-forward a freshly seeded source
// to the exact stream position of the original — making every post-restore
// random decision (karma replacement rows, reservoir accept/slot draws,
// optimizer restarts) bit-identical to the model that took the checkpoint.
// math/rand does not expose its internal state, so replaying the draw count
// is the only seed-stable way to serialize it.
type CountingSource struct {
	src   rand.Source
	src64 rand.Source64 // non-nil when src natively produces 64-bit values
	n     uint64
}

// NewCountingSource returns a counted source seeded with seed.
func NewCountingSource(seed int64) *CountingSource {
	s := rand.NewSource(seed)
	s64, _ := s.(rand.Source64)
	return &CountingSource{src: s, src64: s64}
}

// Int63 implements rand.Source. One call advances the state once.
func (c *CountingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 implements rand.Source64, composing two Int63 draws exactly like
// rand.Rand does when the source lacks native 64-bit output, so the stream
// matches rand.New(rand.NewSource(seed)) bit for bit either way.
func (c *CountingSource) Uint64() uint64 {
	if c.src64 != nil {
		c.n++
		return c.src64.Uint64()
	}
	c.n += 2
	return uint64(c.src.Int63())>>31 | uint64(c.src.Int63())<<32
}

// Seed implements rand.Source and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws returns how many times the underlying state has advanced.
func (c *CountingSource) Draws() uint64 { return c.n }

// FastForward advances a freshly seeded source n state steps, reproducing
// the stream position recorded by Draws.
func (c *CountingSource) FastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Int63()
	}
	c.n = n
}
