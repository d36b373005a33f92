package radio

import (
	"testing"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

// TestLinkCacheMatchesFormulas pins the memoized link accessors to the raw
// formulas bit-for-bit: caching is a pure perf change and must never alter
// an observable value, including on repeat hits.
func TestLinkCacheMatchesFormulas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Range = 50
	ch, _ := newTestChannel(cfg, 1)
	src := rng.New(42)
	points := make([]geo.Point, 32)
	for i := range points {
		points[i] = geo.Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
	}
	for pass := 0; pass < 3; pass++ { // pass 0 fills the cache, 1-2 hit it
		for _, a := range points {
			for _, b := range points {
				d := a.Dist(b)
				wantDelay := cfg.BaseDelay + sim.Duration(d)*cfg.DelayPerUnit
				//lint:allow floateq memoized value must be the identical bits
				if got := ch.Delay(a, b); got != wantDelay {
					t.Fatalf("pass %d Delay(%v,%v) = %v, want %v", pass, a, b, got, wantDelay)
				}
				//lint:allow floateq memoized value must be the identical bits
				if got := ch.LinkRSS(a, b); got != ch.RSS(d) {
					t.Fatalf("pass %d LinkRSS(%v,%v) = %v, want %v", pass, a, b, got, ch.RSS(d))
				}
				if got, want := ch.InRange(a, b), d <= cfg.Range; got != want {
					t.Fatalf("pass %d InRange(%v,%v) = %v, want %v", pass, a, b, got, want)
				}
			}
		}
	}
}

// TestLinkCacheEviction floods the direct-mapped cache with far more
// pairs than it has slots, forcing collisions and evictions, and checks
// the cache stays bounded and every answer stays exact throughout.
func TestLinkCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	ch, _ := newTestChannel(cfg, 1)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 3*linkCacheSize; i++ {
			a := geo.Point{X: float64(i), Y: float64(i % 7)}
			b := geo.Point{X: 0, Y: 1}
			d := a.Dist(b)
			want := cfg.BaseDelay + sim.Duration(d)*cfg.DelayPerUnit
			//lint:allow floateq memoized value must be the identical bits
			if got := ch.Delay(a, b); got != want {
				t.Fatalf("pass %d Delay(%v) = %v, want %v", pass, a, got, want)
			}
		}
	}
	if got := len(ch.links); got != linkCacheSize {
		t.Fatalf("cache has %d slots, want the cap %d", got, linkCacheSize)
	}
}

// TestZeroValueChannelLinkLazyInit: a Channel built without NewChannel
// (tests do this) must lazily allocate its cache rather than crash.
func TestZeroValueChannelLinkLazyInit(t *testing.T) {
	ch := &Channel{cfg: DefaultConfig()}
	a, b := geo.Point{X: 3, Y: 4}, geo.Point{X: 0, Y: 0}
	want := ch.cfg.BaseDelay + sim.Duration(5)*ch.cfg.DelayPerUnit
	//lint:allow floateq memoized value must be the identical bits
	if got := ch.Delay(a, b); got != want {
		t.Fatalf("Delay = %v, want %v", got, want)
	}
}

// TestSendUsesCachedLink checks Send's outcomes and delivery times are
// unchanged by the cache: a warm channel and a cold channel given the same
// rng stream behave identically.
func TestSendUsesCachedLink(t *testing.T) {
	run := func(warm bool) (outs []Outcome, times []float64) {
		cfg := DefaultConfig()
		cfg.Range = 80
		cfg.DropProb = 0.2
		ch, k := newTestChannel(cfg, 7)
		pts := []geo.Point{{X: 0, Y: 0}, {X: 30, Y: 40}, {X: 90, Y: 0}, {X: 10, Y: 10}}
		if warm {
			for _, a := range pts {
				for _, b := range pts {
					ch.Delay(a, b) // prime the cache without touching the rng
				}
			}
		}
		for i := 0; i < 200; i++ {
			from, to := pts[i%len(pts)], pts[(i+1)%len(pts)]
			outs = append(outs, ch.Send(from, to, func() {}))
		}
		k.RunAll()
		times = append(times, float64(k.Now()))
		return outs, times
	}
	coldOuts, coldTimes := run(false)
	warmOuts, warmTimes := run(true)
	for i := range coldOuts {
		if coldOuts[i] != warmOuts[i] {
			t.Fatalf("send %d: cold=%v warm=%v", i, coldOuts[i], warmOuts[i])
		}
	}
	//lint:allow floateq warm and cold runs must be byte-identical
	if coldTimes[0] != warmTimes[0] {
		t.Fatalf("final clock diverged: cold=%v warm=%v", coldTimes[0], warmTimes[0])
	}
}

// TestLinkCacheSizedToLivePairs checks the cache grows with the pairs a
// channel actually prices: a location grid's hundred members sending to
// one head over and over settle in a table far below the cap, while
// TestLinkCacheEviction's flood of distinct pairs reaches it.
func TestLinkCacheSizedToLivePairs(t *testing.T) {
	ch, _ := newTestChannel(DefaultConfig(), 1)
	head := geo.Point{X: 50, Y: 50}
	for pass := 0; pass < 200; pass++ {
		for i := 0; i < 100; i++ {
			ch.Delay(geo.Point{X: float64(5 + 10*(i%10)), Y: float64(5 + 10*(i/10))}, head)
		}
	}
	if got := len(ch.links); got > linkCacheSize/4 {
		t.Fatalf("100 live pairs grew the cache to %d slots, want at most %d", got, linkCacheSize/4)
	}
	t.Logf("100 live pairs settle at %d slots", len(ch.links))
}
