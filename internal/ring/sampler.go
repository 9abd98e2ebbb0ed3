package ring

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math"

	// The ChaCha8 generator below is the module's single approved
	// deterministic keystream: cryptographically strong, reproducible
	// under a fixed seed for tests and experiments. Every other crypto
	// package must draw through Keystream/Sampler instead of importing
	// math/rand itself (enforced by athena-lint's cryptorand pass).
	mrand "math/rand/v2" //lint:allow cryptorand seeded ChaCha8 keystream is the approved CSPRNG core all samplers route through
)

// DefaultSigma is the standard deviation of the RLWE error distribution,
// matching the value conventional in the FHE literature (and the noise
// analysis in the Athena paper, Section 3.3).
const DefaultSigma = 3.2

// keystreamTweak separates the ring sampler's key schedule from other
// consumers deriving streams from the same seed.
const keystreamTweak = 0x9e3779b97f4a7c15

// Keystream is a deterministic ChaCha8 random stream. It is the
// randomness core shared by every sampler in the module: given the same
// (seed, tweak) it replays the same stream, which keeps tests and
// experiments reproducible while remaining cryptographically strong.
type Keystream struct {
	cc  *mrand.ChaCha8
	src *mrand.Rand
}

func newKeystream(key [32]byte) *Keystream {
	cc := mrand.NewChaCha8(key)
	return &Keystream{cc: cc, src: mrand.New(cc)}
}

// NewKeystream creates a stream keyed by seed with the ring tweak.
func NewKeystream(seed uint64) *Keystream {
	return NewKeystreamTweaked(seed, keystreamTweak)
}

// NewKeystreamTweaked creates a stream keyed by seed XOR-folded with a
// caller-chosen tweak, so independent subsystems can derive disjoint
// streams from one master seed.
func NewKeystreamTweaked(seed, tweak uint64) *Keystream {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:16], seed^tweak)
	return newKeystream(key)
}

// Uint64N returns a uniform value in [0, n).
func (k *Keystream) Uint64N(n uint64) uint64 { return k.src.Uint64N(n) }

// IntN returns a uniform int in [0, n).
func (k *Keystream) IntN(n int) int { return k.src.IntN(n) }

// Seed32 draws a 32-byte seed, the key of a RowStream's rows.
func (k *Keystream) Seed32() [32]byte {
	var s [32]byte
	for i := 0; i < len(s); i += 8 {
		binary.LittleEndian.PutUint64(s[i:], k.src.Uint64())
	}
	return s
}

// NormFloat64 returns a standard normal draw.
func (k *Keystream) NormFloat64() float64 { return k.src.NormFloat64() }

// Gaussian returns a rounded Gaussian draw with standard deviation
// sigma, truncated by rejection just past 6 sigma.
func (k *Keystream) Gaussian(sigma float64) int64 {
	for {
		x := k.src.NormFloat64() * sigma
		if math.Abs(x) <= 6*sigma+1 {
			return int64(math.Round(x))
		}
	}
}

// RandomSeed returns a fresh seed from the operating system's CSPRNG,
// for production key generation where reproducibility is not wanted.
func RandomSeed() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Sampler draws ring elements from the distributions RLWE needs. It is
// deterministic given its seed (ChaCha8 keystream), which keeps tests and
// experiments reproducible.
type Sampler struct {
	r *Ring
	*Keystream
}

// NewSampler creates a sampler over ring r seeded by seed.
func NewSampler(r *Ring, seed uint64) *Sampler {
	return &Sampler{r: r, Keystream: NewKeystream(seed)}
}

// Uniform fills p with independent uniform residues in each limb.
func (s *Sampler) Uniform(p Poly) {
	for i := range p.Coeffs {
		q := s.r.Moduli[i].Q
		pi := p.Coeffs[i]
		for j := range pi {
			pi[j] = s.src.Uint64N(q)
		}
	}
}

// TernaryDense samples a uniformly random ternary polynomial with
// coefficients in {-1, 0, 1} (each with probability 1/3) and writes the
// same underlying integer vector into every limb.
func (s *Sampler) TernaryDense(p Poly) []int64 {
	n := len(p.Coeffs[0])
	v := make([]int64, n)
	for j := range v {
		v[j] = int64(s.src.IntN(3)) - 1
	}
	s.setSigned(v, p)
	return v
}

// Gaussian samples a discrete Gaussian polynomial (rounded continuous
// Gaussian with standard deviation sigma, truncated at 6 sigma) shared
// across limbs. It returns the underlying signed vector for noise
// accounting in tests.
func (s *Sampler) Gaussian(sigma float64, p Poly) []int64 {
	n := len(p.Coeffs[0])
	bound := math.Ceil(6 * sigma)
	v := make([]int64, n)
	for j := range v {
		for {
			x := s.src.NormFloat64() * sigma
			if math.Abs(x) <= bound {
				v[j] = int64(math.Round(x))
				break
			}
		}
	}
	s.setSigned(v, p)
	return v
}

func (s *Sampler) setSigned(v []int64, p Poly) {
	for i := range p.Coeffs {
		m := s.r.Moduli[i]
		pi := p.Coeffs[i]
		for j, x := range v {
			pi[j] = m.ReduceInt64(x)
		}
	}
}

// RowStream is a Sampler whose stream is re-keyed in place for each row
// it draws: row (i, j) of a 32-byte seed is the ChaCha8 stream keyed by
// SHA-256(seed ‖ i ‖ j). Any row is drawn without drawing the rows
// before it, so the rows of a key's level-ℓ prefix are the same words
// whatever the key's full length, and re-keying allocates nothing.
type RowStream struct {
	Sampler
}

// NewRowStream returns a row stream over ring r, which Sampler's
// polynomial draws reduce into; r may be nil when only UniformRow is
// used.
func NewRowStream(r *Ring) *RowStream {
	return &RowStream{Sampler{r: r, Keystream: newKeystream([32]byte{})}}
}

// Row re-keys the stream to row (i, j) of seed.
func (s *RowStream) Row(seed *[32]byte, i, j int) {
	var in [48]byte
	copy(in[:32], seed[:])
	binary.LittleEndian.PutUint64(in[32:], uint64(i))
	binary.LittleEndian.PutUint64(in[40:], uint64(j))
	s.cc.Seed(sha256.Sum256(in[:]))
}

// UniformRow fills row with independent uniform residues mod q.
func (s *RowStream) UniformRow(row []uint64, q uint64) {
	for j := range row {
		row[j] = s.src.Uint64N(q)
	}
}
