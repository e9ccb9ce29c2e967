package randutil

import "math/rand"

// SplitMix64 is a splittable counter-based PRNG source in the style of
// Steele, Lea & Flood ("Fast Splittable Pseudorandom Number Generators",
// OOPSLA 2014): the state advances by a per-stream odd increment (the
// "gamma") and each output is a strong bit-mix of the state. Distinct
// streams derived from the same seed use distinct gammas, so their
// sequences are statistically independent rather than shifted copies of
// one another — exactly what the sharded Gibbs sweep needs for its
// per-shard RNGs.
type SplitMix64 struct {
	state uint64
	gamma uint64
}

// mix64 is the SplitMix64 output finalizer (Stafford's Mix13 variant).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const goldenGamma = 0x9e3779b97f4a7c15

// NewSplitMix64 returns the stream-0 source for the seed.
func NewSplitMix64(seed int64) *SplitMix64 { return NewStreamSource(seed, 0) }

// NewStreamSource derives the stream-th independent source from seed.
// The same (seed, stream) pair always yields the same sequence.
func NewStreamSource(seed int64, stream uint64) *SplitMix64 {
	return &SplitMix64{
		state: mix64(uint64(seed) ^ mix64(stream*goldenGamma+1)),
		// Any odd gamma gives a full-period stream; mixing the pair keeps
		// neighbouring streams' increments unrelated.
		gamma: mix64(uint64(seed)*goldenGamma+stream) | 1,
	}
}

// Uint64 returns the next 64 random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source, resetting to stream 0 of the seed.
func (s *SplitMix64) Seed(seed int64) { *s = *NewSplitMix64(seed) }

// Stream returns a *rand.Rand drawing from the stream-th independent
// sequence derived from seed. The shards of a parallel sweep each take
// one stream so that every (seed, stream) pair is reproducible while no
// two shards share or split a single sequential chain.
func Stream(seed int64, stream uint64) *rand.Rand {
	return rand.New(NewStreamSource(seed, stream))
}
