package geo

import (
	"fmt"
	"math"
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// BenchmarkNearest resolves nearest-point queries over an n-point uniform
// field, through the spatial grid or the brute linear scan the grid
// replaced. The two give identical answers (pinned by the grid
// differential fuzzers); the ratio of the rows is the grid's speedup at
// field scale.
func BenchmarkNearest(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		src := rng.New(7)
		side := 10 * math.Sqrt(float64(n))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: src.Uniform(0, side), Y: src.Uniform(0, side)}
		}
		queries := make([]Point, 256)
		for i := range queries {
			queries[i] = Point{X: src.Uniform(0, side), Y: src.Uniform(0, side)}
		}
		b.Run(fmt.Sprintf("%dk-grid", n/1000), func(b *testing.B) {
			g := NewGrid()
			g.Rebuild(pts, AutoCell(pts))
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				idx, _ := g.Nearest(queries[i%len(queries)])
				sink += idx
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
		b.Run(fmt.Sprintf("%dk-brute", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				best, bestD2 := 0, pts[0].Dist2(q)
				for j := 1; j < len(pts); j++ {
					if d2 := pts[j].Dist2(q); d2 < bestD2 {
						best, bestD2 = j, d2
					}
				}
				sink += best
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}
