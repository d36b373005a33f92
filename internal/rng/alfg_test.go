package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// edgeSeeds are the seeds where math/rand's seed reduction (seed mod
// 2³¹−1, negatives wrapped, 0 replaced by 89482311) has a boundary.
var edgeSeeds = []int64{
	0, 1, -1,
	lcgMod, -lcgMod, lcgMod - 1, lcgMod + 1, 2 * lcgMod,
	math.MinInt64, math.MaxInt64,
	lcgSeed0, -lcgSeed0,
}

// diffSeeds is edgeSeeds plus a spread of random 64-bit seeds.
func diffSeeds() []int64 {
	seeds := slices.Clone(edgeSeeds)
	spread := rand.New(rand.NewSource(20050628))
	for range 200 {
		seeds = append(seeds, int64(spread.Uint64()))
	}
	return seeds
}

// stdSource is the reference: Go 1 math/rand's own source.
func stdSource(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// refSplit is Split's definition built from the standard library:
// math/rand seeded with seed XOR hash/fnv's 64-bit FNV-1a of name.
func refSplit(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// Draws 0–272 are served from the seeded entries, draw 273 builds the
// register, and 3000 draws wrap the 607-word register several times.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range diffSeeds() {
		var got alfg
		got.Seed(seed)
		want := stdSource(seed)
		for k := 0; k < 3000; k++ {
			var g, w uint64
			if k%3 == 2 {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			} else {
				g, w = got.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// Reseeding mid-stream, before and after the register exists, restarts
// the stream exactly as math/rand's Seed does.
func TestSourceReseedMatchesMathRand(t *testing.T) {
	var got alfg
	got.Seed(3)
	want := stdSource(3)
	for _, step := range []struct {
		seed  int64
		draws int
	}{{5, 100}, {-9, 700}, {0, 10}, {math.MaxInt64, 300}} {
		got.Seed(step.seed)
		want.Seed(step.seed)
		for k := 0; k < step.draws; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d draw %d: got %#x, math/rand %#x", step.seed, k, g, w)
			}
		}
	}
}

// The Source API on top of the new generator matches the same calls on
// a math/rand.Rand, including the seeds derived by both Split forms.
func TestSourceAPIMatchesMathRand(t *testing.T) {
	for _, seed := range diffSeeds()[:40] {
		checkAPI(t, New(seed), rand.New(rand.NewSource(seed)))
		checkAPI(t, Split(seed, "node/17"), refSplit(seed, "node/17"))
		checkAPI(t, Split(seed, ""), refSplit(seed, ""))

		parent, ref := New(seed), rand.New(rand.NewSource(seed))
		for range 300 {
			parent.Int63()
			ref.Int63()
		}
		child := parent.Split("noise")
		checkAPI(t, child, refSplit(ref.Int63(), "noise"))
		checkAPI(t, parent, ref)
	}
}

// SplitInto seeds its target exactly as Split over the built name would,
// taking the same one draw from the parent, for the digit counts and
// boundaries an ID can have.
func TestSplitIntoMatchesSplit(t *testing.T) {
	ids := []int{0, 1, 9, 10, 99, 100, 123456, 1<<31 - 1, math.MaxInt}
	for _, seed := range diffSeeds()[:20] {
		for _, prefix := range []string{"", "node-"} {
			for _, i := range ids {
				checkSplitInto(t, seed, prefix, i)
			}
		}
	}
}

// checkSplitInto compares p.SplitInto(dst, prefix, i) with
// q.Split(prefix + strconv.Itoa(i)) on two parents seeded alike: the
// child streams and the parents' next draws must be equal.
func checkSplitInto(t *testing.T, seed int64, prefix string, i int) {
	t.Helper()
	p, q := New(seed), New(seed)
	var dst Source
	dst.Int63() // a used target is reset, not continued
	p.SplitInto(&dst, prefix, i)
	want := q.Split(prefix + strconv.Itoa(i))
	if dst.src.x0 != want.src.x0 || dst.src.n != 0 || dst.src.reg != nil || dst.r != nil {
		t.Fatalf("seed %d SplitInto(%q, %d): state %+v, Split gives %+v", seed, prefix, i, dst.src, want.src)
	}
	for k := 0; k < 4; k++ {
		if g, w := dst.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d SplitInto(%q, %d) draw %d: %d, Split %d", seed, prefix, i, k, g, w)
		}
	}
	if g, w := p.Int63(), q.Int63(); g != w {
		t.Fatalf("seed %d SplitInto(%q, %d): parent draws %d after it, Split's parent %d", seed, prefix, i, g, w)
	}
}

// FuzzSourceAPIMatchesMathRand drives the helpers that draw without the
// math/rand wrapper (Float64, Gaussian, Uniform, Bernoulli) mixed with
// Intn and Int63 against a math/rand.Rand on the same seed, one fuzzed
// op byte per call, and checks SplitInto against Split for a fuzzed
// name.
func FuzzSourceAPIMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5}, "node-", 17)
	f.Add(int64(-7), []byte{1, 1, 1, 1, 4, 0}, "", 0)
	f.Add(int64(math.MaxInt64), []byte{5, 3, 2}, "x", -40)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, prefix string, i int) {
		s, r := New(seed), rand.New(rand.NewSource(seed))
		for k, op := range ops {
			var g, w uint64
			p := float64(op) / 255
			switch op % 6 {
			case 0:
				g, w = math.Float64bits(s.Float64()), math.Float64bits(r.Float64())
			case 1:
				g, w = math.Float64bits(s.Gaussian(0, 1)), math.Float64bits(r.NormFloat64())
			case 2:
				g, w = math.Float64bits(s.Uniform(-p, 1)), math.Float64bits(-p+(1+p)*r.Float64())
			case 3:
				// Bernoulli draws nothing at p <= 0 or p >= 1.
				want := p >= 1 || p > 0 && r.Float64() < p
				g, w = boolBit(s.Bernoulli(p)), boolBit(want)
			case 4:
				g, w = uint64(s.Intn(int(op)+1)), uint64(r.Intn(int(op)+1))
			default:
				g, w = uint64(s.Int63()), uint64(r.Int63())
			}
			if g != w {
				t.Fatalf("seed %d op %d (%d): %#x, math/rand %#x", seed, k, op, g, w)
			}
		}
		checkSplitInto(t, seed, prefix, i)
	})
}

func checkAPI(t *testing.T, s *Source, r *rand.Rand) {
	t.Helper()
	for round := 0; round < 40; round++ {
		if g, w := s.Intn(1000), r.Intn(1000); g != w {
			t.Fatalf("round %d Intn: %d != %d", round, g, w)
		}
		if g, w := s.Perm(12), r.Perm(12); !slices.Equal(g, w) {
			t.Fatalf("round %d Perm: %v != %v", round, g, w)
		}
		gs, ws := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
		s.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		r.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		if !slices.Equal(gs, ws) {
			t.Fatalf("round %d Shuffle: %v != %v", round, gs, ws)
		}
		if g, w := s.Gaussian(0, 1), r.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("round %d NormFloat64: %v != %v", round, g, w)
		}
		if g, w := s.ExpFloat64(), r.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("round %d ExpFloat64: %v != %v", round, g, w)
		}
		if g, w := s.Float64(), r.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("round %d Float64: %v != %v", round, g, w)
		}
		if g, w := s.Int63(), r.Int63(); g != w {
			t.Fatalf("round %d Int63: %d != %d", round, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand pins the lazily seeded generator to
// math/rand.NewSource for arbitrary seeds and stream lengths.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(rngTap+1))
	}
	f.Add(int64(42), uint16(2*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var got alfg
		got.Seed(seed)
		want := stdSource(seed)
		for k := 0; k < int(draws)%4096; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, k, g, w)
			}
		}
	})
}

// A stream holds a few words until draw 273: no draw before it
// allocates, and the 607-word register appears only on that draw.
func TestLazySourceFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Source{}); size > 32 {
		t.Fatalf("Source is %d bytes, want at most 32 before the register is built", size)
	}
	if n := testing.AllocsPerRun(100, func() { sinkSource = New(7) }); n > 1 {
		t.Fatalf("New allocates %v times, want 1 (the Source)", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkSource = Split(7, "node/123456") }); n > 1 {
		t.Fatalf("Split allocates %v times, want 1 (the Source)", n)
	}
	parent, dst := New(7), new(Source)
	if n := testing.AllocsPerRun(100, func() { parent.SplitInto(dst, "node-", 123456) }); n != 0 {
		t.Fatalf("SplitInto allocates %v times, want 0", n)
	}

	s := New(11)
	// AllocsPerRun makes one warm-up call plus rngTap-1 runs: exactly
	// draws 0 through 272.
	if n := testing.AllocsPerRun(rngTap-1, func() { sinkInt = s.Int63() }); n != 0 {
		t.Fatalf("draws before %d allocate %v times per draw, want 0", rngTap, n)
	}
	if s.src.reg != nil || s.src.n != rngTap {
		t.Fatalf("after %d draws: register built = %v, draw count %d", s.src.n, s.src.reg != nil, s.src.n)
	}
	s.Int63()
	if s.src.reg == nil {
		t.Fatalf("draw %d did not build the register", rngTap)
	}
}

// Float64, Gaussian, Uniform and Bernoulli draw straight from the
// generator and never build the math/rand wrapper; Intn builds it on its
// first call. Either way the stream is math/rand's, draw for draw.
func TestRandWrapperBuiltOnFirstDraw(t *testing.T) {
	for _, seed := range diffSeeds()[:20] {
		s, child := New(seed), Split(seed, "node/7")
		if s.r != nil || child.r != nil {
			t.Fatalf("seed %d: a source that never drew holds a *rand.Rand", seed)
		}
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 1000; k++ {
			var g, w uint64
			switch k % 5 {
			case 0:
				g, w = math.Float64bits(s.Float64()), math.Float64bits(ref.Float64())
			case 1:
				g, w = math.Float64bits(s.Gaussian(0, 1)), math.Float64bits(ref.NormFloat64())
			case 2:
				g, w = math.Float64bits(s.Uniform(-3, 5)), math.Float64bits(-3+8*ref.Float64())
			case 3:
				g, w = boolBit(s.Bernoulli(0.3)), boolBit(ref.Float64() < 0.3)
			default:
				g, w = uint64(s.Int63()), uint64(ref.Int63())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k, g, w)
			}
		}
		if s.r != nil {
			t.Fatalf("seed %d: Float64, Gaussian, Uniform, Bernoulli or Int63 built the wrapper", seed)
		}
		if g, w := s.Intn(1000), ref.Intn(1000); g != w {
			t.Fatalf("seed %d Intn: %d, math/rand %d", seed, g, w)
		}
		if s.r == nil {
			t.Fatalf("seed %d: Intn did not build the wrapper", seed)
		}
		if g, w := s.Float64(), ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: Float64 after Intn: %v, math/rand %v", seed, g, w)
		}
	}

	// A million Gaussian draws at each of three seeds: enough to reach
	// the ziggurat's base strip (about one draw in 1,800) and its wedges
	// (about one in 37), not only the fast path.
	for _, seed := range []int64{1, 20050628, -7} {
		s, ref := New(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < 1_000_000; k++ {
			if g, w := s.Gaussian(0, 1), ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d Gaussian draw %d: %v, math/rand %v", seed, k, g, w)
			}
		}
		if s.r != nil {
			t.Fatalf("seed %d: Gaussian built the wrapper", seed)
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var (
	sinkSource *Source
	sinkInt    int64
)
