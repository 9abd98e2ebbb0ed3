package lwe

import "athena/internal/ring"

// streamTweak keeps lwe-derived streams disjoint from ring-sampler
// streams sharing the same master seed (and preserves the historical
// wire/test vectors, which were keyed this way).
const streamTweak = 0xc2b2ae3d27d4eb4f

// Stream is the deterministic randomness source for LWE operations: a
// thin view over the module's single approved ChaCha8 keystream in
// internal/ring (see athena-lint's cryptorand pass).
type Stream struct {
	*ring.Keystream
}

// NewStream creates a seeded stream.
func NewStream(seed uint64) *Stream {
	return &Stream{Keystream: ring.NewKeystreamTweaked(seed, streamTweak)}
}
