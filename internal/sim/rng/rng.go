// Package rng provides the small, fast, seedable random streams that drive
// every stochastic process in the simulation (fading, shadowing, backoff,
// interference, corpus generation).
//
// A Stream is a splitmix64 generator (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): 8 bytes of state, an
// add-and-mix step per draw, and no heap allocation after construction.
// It replaces math/rand.Rand on the per-frame hot path, where the latter's
// interface indirection and large internal state are measurable.
//
// Streams are decorrelated by construction: Named derives both the initial
// state and the (odd) additive constant from the root seed and the stream
// name, so each name walks a structurally different sequence rather than a
// shifted window of a shared one. The same (seed, name) pair always yields
// the same draws — the determinism contract the seeded-equivalence harness
// (internal/simtest) asserts.
//
// The distribution methods (Float64, Intn, ExpFloat64, NormFloat64) are
// part of that contract too: their draw counts and algorithms are fixed, so
// changing any of them requires regenerating the simtest golden fixtures
// (see docs/PERFORMANCE.md).
package rng

import (
	"math"
	"math/bits"
)

// goldenGamma is the default splitmix64 additive constant (2^64 / phi).
const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output function (a bijective finalizer, variant
// "mix13" from the reference implementation).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudorandom stream. The zero value is a valid
// stream (seeded with zero); use New or Named for explicit seeding.
// A Stream is not safe for concurrent use — like the Simulator that hands
// them out, each stream belongs to a single simulation goroutine.
type Stream struct {
	state uint64
	gamma uint64 // additive constant; always odd

	// Cached second deviate for NormFloat64 (Marsaglia polar method
	// produces two per rejection round).
	gauss    float64
	hasGauss bool
}

// New returns a stream seeded with seed, using the golden-ratio gamma.
func New(seed int64) *Stream {
	return &Stream{state: mix64(uint64(seed)), gamma: goldenGamma}
}

// Named returns the stream derived from a root seed and a stream name.
// Equal (seed, name) pairs yield identical streams; distinct names yield
// structurally independent ones (different state *and* different gamma).
func Named(seed int64, name string) *Stream {
	s := new(Stream)
	s.Reset(seed, name)
	return s
}

// Reset re-seeds s in place as the stream Named(seed, name) returns, so a
// recycled stream draws exactly what a fresh one would.
func (s *Stream) Reset(seed int64, name string) {
	// FNV-1a over the name, root seed folded in — the same derivation the
	// engine has always used for stream naming, so stream identity is
	// stable across engine versions.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= uint64(seed)
	h *= prime64
	*s = Stream{
		state: mix64(h),
		// Deriving gamma from a second scramble keeps streams off shifted
		// windows of one sequence; |1 makes it odd (full period).
		gamma: mix64(h*prime64+offset64) | 1,
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Int63 returns a non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uint64n returns a uniform draw in [0, n) using Lemire's multiply-shift
// reduction with rejection (exact, no modulo bias). n must be non-zero.
func (s *Stream) Uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int63n returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(s.Uint64n(uint64(n)))
}

// ExpFloat64 returns an exponentially distributed draw with mean 1, by
// inversion. The argument to Log is in (0, 1], so the result is finite.
func (s *Stream) ExpFloat64() float64 {
	return -math.Log(1 - s.Float64())
}

// NormFloat64 returns a standard normal draw (Marsaglia polar method; the
// second deviate of each rejection round is cached).
func (s *Stream) NormFloat64() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.hasGauss = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements via swap (Fisher–Yates).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}
