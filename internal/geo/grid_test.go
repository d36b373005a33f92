package geo

import (
	"math"
	"slices"
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// bruteRange is the reference pairwise scan Range replaces: ascending
// index order, exact Dist <= r predicate.
func bruteRange(pts []Point, p Point, r float64) []int {
	var out []int
	for i := range pts {
		if pts[i].Dist(p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// bruteNearestClamped is the reference argmin loop: first strictly
// smaller clamped squared distance wins, so ties keep the lowest index.
func bruteNearestClamped(pts []Point, p Point, clamp float64) (int, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	clamp2 := clamp * clamp
	best, bestE2 := -1, math.Inf(1)
	for i := range pts {
		e2 := pts[i].Dist2(p)
		if e2 < clamp2 {
			e2 = clamp2
		}
		if e2 < bestE2 {
			best, bestE2 = i, e2
		}
	}
	return best, true
}

// rssKey mimics the log-distance path-loss metric affiliation uses:
// non-decreasing in distance, with a clamp plateau below one unit.
func rssKey(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return 27 * math.Log10(d)
}

// bruteNearestByDist is the reference first-strict-winner scan over a
// monotone distance key.
func bruteNearestByDist(pts []Point, p Point, key func(float64) float64) (int, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	best, bestKey := -1, math.Inf(1)
	for i := range pts {
		if k := key(pts[i].Dist(p)); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best, true
}

func bruteAnyWithin2(pts []Point, p Point, r float64) bool {
	for i := range pts {
		if pts[i].Dist2(p) <= r*r {
			return true
		}
	}
	return false
}

// randField places n points uniformly on a w×w area; stride > 0 overwrites
// every stride-th point with an earlier one, manufacturing exact-tie
// clusters that stress the (distance, index) comparator.
func randField(src *rng.Source, n int, w float64, stride int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: src.Uniform(0, w), Y: src.Uniform(0, w)}
	}
	if stride > 0 {
		for i := stride; i < n; i += stride {
			pts[i] = pts[i-stride]
		}
	}
	return pts
}

func TestGridRangeMatchesBrute(t *testing.T) {
	src := rng.New(42)
	g := NewGrid()
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, stride := range []int{0, 3} {
			pts := randField(src.Split("field"), n, 100, stride)
			for _, cell := range []float64{2, 10, 250} {
				g.Rebuild(pts, cell)
				var out []int
				for q := 0; q < 50; q++ {
					p := Point{X: src.Uniform(-30, 130), Y: src.Uniform(-30, 130)}
					r := src.Uniform(0, 40)
					out = g.Range(p, r, out)
					want := bruteRange(pts, p, r)
					if !slices.Equal(out, want) {
						t.Fatalf("n=%d cell=%g p=%v r=%g: grid %v != brute %v", n, cell, p, r, out, want)
					}
					if got := g.AnyWithin2(p, r); got != bruteAnyWithin2(pts, p, r) {
						t.Fatalf("AnyWithin2 n=%d cell=%g p=%v r=%g: got %v", n, cell, p, r, got)
					}
				}
			}
		}
	}
}

func TestGridNearestMatchesBrute(t *testing.T) {
	src := rng.New(7)
	g := NewGrid()
	for _, n := range []int{1, 2, 13, 300, 2000} {
		for _, stride := range []int{0, 2} {
			pts := randField(src.Split("field"), n, 100, stride)
			for _, cell := range []float64{1.5, 12, 400} {
				g.Rebuild(pts, cell)
				for q := 0; q < 80; q++ {
					p := Point{X: src.Uniform(-50, 150), Y: src.Uniform(-50, 150)}
					for _, clamp := range []float64{0, 1, 25} {
						got, ok := g.NearestClamped(p, clamp)
						want, wok := bruteNearestClamped(pts, p, clamp)
						if ok != wok || got != want {
							t.Fatalf("n=%d cell=%g clamp=%g p=%v: grid (%d,%v) != brute (%d,%v)",
								n, cell, clamp, p, got, ok, want, wok)
						}
					}
					got, ok := g.NearestByDist(p, rssKey)
					want, wok := bruteNearestByDist(pts, p, rssKey)
					if ok != wok || got != want {
						t.Fatalf("NearestByDist n=%d cell=%g p=%v: grid (%d,%v) != brute (%d,%v)",
							n, cell, p, got, ok, want, wok)
					}
				}
			}
		}
	}
}

// TestGridNearestByDistPlateau pins NearestByDist's key skipping where it
// is easiest to get wrong: many points inside the key's clamp plateau
// (closer than one unit) at distinct distances, duplicated points, and
// random index order, so equal keys must go to the smallest index even
// when that point is farther than the incumbent.
func TestGridNearestByDistPlateau(t *testing.T) {
	src := rng.New(11)
	g := NewGrid()
	for trial := 0; trial < 300; trial++ {
		c := Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
		pts := make([]Point, 40)
		for i := range pts {
			if src.Bernoulli(0.3) {
				// Inside the plateau around the query, some duplicated.
				pts[i] = Point{X: c.X + src.Uniform(-0.7, 0.7), Y: c.Y + src.Uniform(-0.7, 0.7)}
				if i > 0 && src.Bernoulli(0.3) {
					pts[i] = pts[src.Intn(i)]
				}
			} else {
				pts[i] = Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
			}
		}
		for _, cell := range []float64{0.3, 2, 40} {
			g.Rebuild(pts, cell)
			got, ok := g.NearestByDist(c, rssKey)
			want, wok := bruteNearestByDist(pts, c, rssKey)
			if ok != wok || got != want {
				t.Fatalf("trial %d cell=%g: grid (%d,%v) != brute (%d,%v)", trial, cell, got, ok, want, wok)
			}
		}
	}
}

func TestGridNearestQueryAtPoint(t *testing.T) {
	pts := []Point{{0, 0}, {5, 5}, {5, 5}, {9, 1}}
	g := NewGrid()
	g.Rebuild(pts, 2)
	if got, ok := g.Nearest(Point{5, 5}); !ok || got != 1 {
		t.Fatalf("Nearest at duplicate point: got (%d,%v), want (1,true)", got, ok)
	}
	if got, ok := g.Nearest(Point{100, 100}); !ok || got != 1 {
		t.Fatalf("Nearest far outside bounds: got (%d,%v), want (1,true)", got, ok)
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := NewGrid()
	g.Rebuild(nil, 5)
	if out := g.Range(Point{1, 2}, 10, nil); len(out) != 0 {
		t.Fatalf("Range on empty grid: %v", out)
	}
	if _, ok := g.Nearest(Point{}); ok {
		t.Fatal("Nearest on empty grid reported ok")
	}
	if g.AnyWithin2(Point{}, 10) {
		t.Fatal("AnyWithin2 on empty grid reported true")
	}
	// All points coincident: one cell, every query resolves to index 0.
	pts := []Point{{3, 3}, {3, 3}, {3, 3}}
	g.Rebuild(pts, 1)
	if got, ok := g.Nearest(Point{50, -20}); !ok || got != 0 {
		t.Fatalf("coincident Nearest: got (%d,%v)", got, ok)
	}
	if out := g.Range(Point{3, 3}, 0, nil); !slices.Equal(out, []int{0, 1, 2}) {
		t.Fatalf("coincident Range r=0: %v", out)
	}
}

func TestGridRebuildReuses(t *testing.T) {
	g := NewGrid()
	src := rng.New(9)
	a := randField(src.Split("a"), 500, 100, 0)
	b := randField(src.Split("b"), 40, 10, 0)
	g.Rebuild(a, 5)
	if got := g.Len(); got != 500 {
		t.Fatalf("Len after first Rebuild: %d", got)
	}
	g.Rebuild(b, 5)
	var out []int
	out = g.Range(Point{5, 5}, 100, out)
	if want := bruteRange(b, Point{5, 5}, 100); !slices.Equal(out, want) {
		t.Fatalf("Range after Rebuild reuse: %v != %v", out, want)
	}
	allocs := testing.AllocsPerRun(20, func() { g.Rebuild(b, 5) })
	if allocs != 0 {
		t.Fatalf("steady-state Rebuild allocates %.0f objects/op, want 0", allocs)
	}
}

func TestGridCellCap(t *testing.T) {
	// Two points 1e9 apart with a 1e-3 cell would want 1e12 columns; the
	// cap must double the cell until the grid fits while queries stay exact.
	pts := []Point{{0, 0}, {1e9, 1e9}, {1e9 - 1, 1e9}}
	g := NewGrid()
	g.Rebuild(pts, 1e-3)
	if g.cols*g.rows > maxGridCells {
		t.Fatalf("cell cap ineffective: %d cells", g.cols*g.rows)
	}
	if got, ok := g.Nearest(Point{1e9, 1e9 - 0.25}); !ok || got != 1 {
		t.Fatalf("Nearest under capped cell: got (%d,%v), want (1,true)", got, ok)
	}
	if out := g.Range(Point{0, 0}, 2, nil); !slices.Equal(out, []int{0}) {
		t.Fatalf("Range under capped cell: %v", out)
	}
}

func TestAutoCell(t *testing.T) {
	if got := AutoCell(nil); got != 1 {
		t.Fatalf("AutoCell(nil) = %g", got)
	}
	if got := AutoCell([]Point{{4, 4}, {4, 4}}); got != 1 {
		t.Fatalf("AutoCell(coincident) = %g", got)
	}
	pts := randField(rng.New(3).Split("f"), 100, 50, 0)
	c := AutoCell(pts)
	if !(c > 0) || c > 50 {
		t.Fatalf("AutoCell = %g, want in (0, 50]", c)
	}
}
