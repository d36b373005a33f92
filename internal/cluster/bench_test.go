package cluster

import (
	"fmt"
	"testing"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
)

// BenchmarkClusterScaling measures the §3.2 heuristic over report counts
// spanning one neighborhood (12) to a whole dense field (200), with a
// quarter of the reports scattered as outliers. The reused-mix case is
// the aggregator's regime: one Clusterer, reused across rounds, over 12
// tight reports plus 3 outliers.
func BenchmarkClusterScaling(b *testing.B) {
	for _, n := range []int{12, 50, 200} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(1)
			reports := make([]Report, n)
			for i := range reports {
				loc := geo.Point{X: 50 + src.Gaussian(0, 2), Y: 50 + src.Gaussian(0, 2)}
				if i%4 == 0 {
					loc = geo.Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
				}
				reports[i] = Report{Node: i, Loc: loc}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := Cluster(reports, 5); len(got) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
	b.Run("reused-mix", func(b *testing.B) {
		reports := make([]Report, 0, 15)
		for i := 0; i < 12; i++ {
			reports = append(reports, Report{
				Node: i,
				Loc:  geo.Point{X: 50 + float64(i%4), Y: 50 + float64(i/4)},
			})
		}
		reports = append(reports,
			Report{Node: 12, Loc: geo.Point{X: 80, Y: 20}},
			Report{Node: 13, Loc: geo.Point{X: 10, Y: 90}},
			Report{Node: 14, Loc: geo.Point{X: 30, Y: 70}},
		)
		cl := NewClusterer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := cl.Cluster(reports, 5); len(got) == 0 {
				b.Fatal("no clusters")
			}
		}
	})
}

// BenchmarkCircleSet measures the concurrent-event bookkeeping under a
// steady report stream.
func BenchmarkCircleSet(b *testing.B) {
	src := rng.New(2)
	locs := make([]geo.Point, 256)
	for i := range locs {
		locs[i] = geo.Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewCircleSet(5, 1)
		now := 0.0
		for j := 0; j < 64; j++ {
			now += 0.1
			s.Add(Report{Node: j, Loc: locs[j%len(locs)]}, simTime(now))
			s.Collect(simTime(now))
		}
		s.Collect(simTime(now + 10))
	}
}
