package aggregator

import (
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
)

// benchGrid builds a g×g grid of node positions spaced 10 units apart.
func benchGrid(g int) PosMap {
	pos := make(PosMap, g*g)
	id := 0
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			pos[id] = geo.Point{X: float64(10 + x*10), Y: float64(10 + y*10)}
			id++
		}
	}
	return pos
}

// BenchmarkLocationRound measures one full location aggregation round —
// deliver reports from a 5×5 grid, close the window, cluster, and vote —
// the per-event hot path of Experiments 2-3. The scratch-buffer diet
// shows up in allocs/op here.
func BenchmarkLocationRound(b *testing.B) {
	kernel := sim.New()
	table := core.MustNewTable(core.Params{Lambda: 0.25, FaultRate: 0.1})
	pos := benchGrid(5)
	agg, err := NewLocation(
		LocationConfig{Tout: 1, RError: 5, SenseRadius: 25},
		decision.Adapt(table), kernel, pos, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	event := geo.Point{X: 30, Y: 30}
	ids := pos.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			origin := pos[id]
			if origin.Dist(event) <= 25 {
				agg.Deliver(id, geo.ToPolar(origin, event))
			}
		}
		kernel.RunAll()
	}
	if agg.Rounds() != b.N {
		b.Fatalf("rounds = %d, want %d", agg.Rounds(), b.N)
	}
}

// BenchmarkBinaryWindow measures one binary aggregation window over a
// 25-member cluster under each registered decision scheme: 18 members
// deliver, the window expires, the scheme votes and settles trust.
func BenchmarkBinaryWindow(b *testing.B) {
	members := make([]int, 25)
	for i := range members {
		members[i] = i
	}
	for _, name := range decision.Names() {
		b.Run(name, func(b *testing.B) {
			scheme, err := decision.New(name, decision.Params{
				Trust: core.Params{Lambda: 0.1, FaultRate: 0.05},
			})
			if err != nil {
				b.Fatal(err)
			}
			kernel := sim.New()
			agg, err := NewBinary(BinaryConfig{Tout: 1, Members: members}, scheme, kernel, nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range members[:18] {
					agg.Deliver(id)
				}
				kernel.RunAll()
			}
			if agg.Windows() != b.N {
				b.Fatalf("windows = %d, want %d", agg.Windows(), b.N)
			}
		})
	}
}
