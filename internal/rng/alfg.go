package rng

// Go 1's math/rand generator is an additive lagged Fibonacci generator
// (ALFG) over a 607-word register, seeded by running a Lehmer LCG
// x ← 48271·x mod (2³¹−1) about 1,840 steps. Building that register for
// every per-node stream dominated field-scale set-up. alfg produces the
// same outputs, bit for bit, but seeds on demand:
//
//   - Seeded entry S[i] = (x₃ᵢ₊₂₁<<40 ^ x₃ᵢ₊₂₂<<20 ^ x₃ᵢ₊₂₃) ^ rngCooked[i],
//     where xₘ = x₀·48271ᵐ mod (2³¹−1) is one multiply by a precomputed
//     power, so any entry costs three modular multiplies.
//   - Draw k < 273 is S[333−k] + S[606−k]: the feedback writes before
//     draw 273 land only on entries no earlier draw reads again.
//   - Draw 273 first reads an entry an earlier draw wrote, so there the
//     register is built and the 273 writes replayed; from then on the
//     source steps exactly like math/rand.
//
// Most streams draw a few dozen values in a whole run and never build
// the register.

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	// lcgSeed0 replaces a seed that reduces to 0, as math/rand does.
	lcgSeed0 = 89482311
)

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the product
// with the Mersenne identity 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	y := a * b
	y = y&lcgMod + y>>31
	y = y&lcgMod + y>>31
	if y >= lcgMod {
		y -= lcgMod
	}
	return y
}

// alfg is a math/rand.Source64 whose output equals
// math/rand.NewSource(seed) for the same seed. Until draw 273 it holds
// only the reduced seed and the draw count.
type alfg struct {
	x0  uint64    // seed reduced into [1, 2³¹−1)
	n   int       // draws taken while reg is nil
	reg *register // built on draw rngTap
}

// register is math/rand's full generator state.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the source to the start of seed's stream.
func (s *alfg) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgSeed0
	}
	*s = alfg{x0: uint64(seed)}
}

// seeded returns entry i of the freshly seeded register.
func (s *alfg) seeded(i int) int64 {
	x := mulMod(s.x0, lcgPow[i])
	u := int64(x) << 40
	x = mulMod(x, lcgMul)
	u ^= int64(x) << 20
	x = mulMod(x, lcgMul)
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative 63-bit value.
func (s *alfg) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next 64-bit value of the stream.
func (s *alfg) Uint64() uint64 {
	r := s.reg
	if r == nil {
		if k := s.n; k < rngTap {
			s.n++
			return uint64(s.seeded(rngLen-rngTap-1-k) + s.seeded(rngLen-1-k))
		}
		r = s.materialize()
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// materialize builds the register as math/rand holds it after rngTap
// draws: the seeded entries with draw k's sum written back at 333−k.
func (s *alfg) materialize() *register {
	r := &register{tap: rngLen - rngTap, feed: rngLen - 2*rngTap}
	for i := range r.vec {
		r.vec[i] = s.seeded(i)
	}
	for k := 0; k < rngTap; k++ {
		r.vec[rngLen-rngTap-1-k] += r.vec[rngLen-1-k]
	}
	s.reg = r
	return r
}
