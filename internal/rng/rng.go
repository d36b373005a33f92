// Package rng provides deterministic, splittable pseudo-random streams for
// the simulator. Every stochastic component of a simulation (channel drops,
// node noise, adversary coin flips, workload placement) draws from its own
// named stream so that changing one component's consumption pattern does not
// perturb the others. This keeps experiment runs reproducible and makes
// regression tests stable across refactors.
package rng

import (
	"math"
	"math/rand"
	"strconv"
)

// Source is a deterministic random stream with the distribution helpers
// the TIBFIT simulation needs (Bernoulli trials, Gaussian location noise,
// uniform placement). Its stream is exactly math/rand.NewSource(seed)'s,
// seeded lazily (see alfg.go), and every helper returns what the same
// call on a math/rand.Rand over that source returns. A Source is not safe
// for concurrent use; the simulator is single-threaded by design. Do not
// copy a Source once it has drawn: a copy shares its register and its
// wrapper with the original.
type Source struct {
	r   *rand.Rand // built on the first draw that needs it; see rnd
	src alfg
}

// New returns a Source seeded with the given seed.
func New(seed int64) *Source {
	s := &Source{}
	s.src.Seed(seed)
	return s
}

// rnd returns the math/rand wrapper over s.src, building it on first use.
// Only Intn, Perm, Shuffle and ExpFloat64 need it, and no node calls
// those; rand.New draws nothing, so the stream is the same either way.
func (s *Source) rnd() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(&s.src)
	}
	return s.r
}

// Split derives an independent child stream from a parent seed and a name.
// The same (seed, name) pair always yields the same stream, and distinct
// names yield streams that are uncorrelated for practical purposes. The
// child is seeded with seed XOR the FNV-1a 64-bit hash of name.
func Split(seed int64, name string) *Source {
	return New(seed ^ int64(fnv1a(fnvOffset64, name)))
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the bytes of name into the FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, name T) uint64 {
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// Split derives a child stream from this source and a name. The child is
// seeded from the parent's next value combined with the name hash, so the
// derivation itself is deterministic.
func (s *Source) Split(name string) *Source {
	return Split(s.src.Int63(), name)
}

// SplitInto seeds dst in place as s.Split(prefix + strconv.Itoa(i))
// would, taking the same one draw from s, without building the name:
// the hash runs over prefix and then over i's decimal digits, formatted
// into a stack buffer. It lets a population keep its streams in one slab
// instead of one heap object each.
func (s *Source) SplitInto(dst *Source, prefix string, i int) {
	seed := s.src.Int63()
	var buf [20]byte // the longest int64 in decimal, sign included
	h := fnv1a(fnv1a(fnvOffset64, prefix), strconv.AppendInt(buf[:0], int64(i), 10))
	*dst = Source{}
	dst.src.Seed(seed ^ int64(h))
}

// Float64 returns a uniform value in [0, 1): Go 1 math/rand's
// float64(Int63())/2⁶³, drawn again in the 2⁻⁵³-rare case that the
// division rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		f := float64(s.src.Int63()) / (1 << 63)
		//lint:allow floateq math/rand resamples exactly when the division rounds to 1
		if f != 1 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rnd().Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.src.Int63() }

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped: p <= 0 never fires and p >= 1 always fires.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Gaussian returns a normal sample with the given mean and standard
// deviation. A non-positive sigma returns the mean exactly, which lets
// callers express "no noise" without branching.
func (s *Source) Gaussian(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.normFloat64()
}

// Rayleigh returns a Rayleigh-distributed sample with scale sigma. The
// radial error of a 2-D Gaussian with per-axis deviation sigma is Rayleigh
// distributed; the paper uses this fact to convert location-noise standard
// deviations into "probability of reporting more than r_error away".
func (s *Source) Rayleigh(sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	u := s.Float64()
	// Guard against log(0); Float64 returns values in [0,1) so 1-u is in
	// (0,1] and only the u==0 case needs no care at all.
	return sigma * math.Sqrt(-2*math.Log(1-u))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rnd().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rnd().Shuffle(n, swap) }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Source) ExpFloat64() float64 { return s.rnd().ExpFloat64() }

// RayleighExceedProb returns the probability that a Rayleigh(sigma) sample
// exceeds r — that is, the probability a node whose 2-D Gaussian location
// noise has per-axis deviation sigma reports more than r away from the true
// event location. This is the closed form the paper's Table 2 alludes to.
func RayleighExceedProb(sigma, r float64) float64 {
	if sigma <= 0 {
		if r > 0 {
			return 0
		}
		return 1
	}
	return math.Exp(-r * r / (2 * sigma * sigma))
}
