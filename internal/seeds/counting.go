package seeds

import "math/rand"

// CountingSource wraps a standard math/rand source with a consumed-draw
// counter, making a stream's position serializable: the pair
// (seed, Draws()) fully describes where the stream is, because the stdlib
// rngSource advances by exactly one internal step per Int63 OR Uint64 call
// regardless of which was used.
//
// The service layer's snapshots record every site's churn-stream draw
// count; after a restore replays to the snapshot frame, the replayed
// counts must match the recorded ones exactly — a cheap, exact check that
// the arrival/session/mobility processes re-consumed precisely the same
// randomness.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountingSource returns a counting wrapper around rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// NewCountingRand returns a *rand.Rand over a fresh counting source plus
// the source itself (for Draws). The Rand draws the same values as
// rand.New(rand.NewSource(seed)) — wrapping adds counting, not a different
// stream.
func NewCountingRand(seed int64) (*rand.Rand, *CountingSource) {
	cs := NewCountingSource(seed)
	return rand.New(cs), cs
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source, resetting the draw counter.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Draws returns how many values have been consumed since the last seed.
func (c *CountingSource) Draws() uint64 {
	return c.draws
}
