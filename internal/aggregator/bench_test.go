package aggregator

import (
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
)

// benchGrid builds a g×g grid of node positions spaced 10 units apart,
// indexed by node ID.
func benchGrid(g int) []geo.Point {
	pos := make([]geo.Point, 0, g*g)
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			pos = append(pos, geo.Point{X: float64(10 + x*10), Y: float64(10 + y*10)})
		}
	}
	return pos
}

// BenchmarkLocationRound measures one full location aggregation round —
// deliver reports, close the window, cluster, and vote — the per-event
// hot path of Experiments 2-3. candidates=1 is one event on a 5×5 grid;
// candidates=4 is the paper-campaign 6×6 grid with one event per 3×3
// quadrant, so every round votes on four candidates and the per-candidate
// silent-set scan shows in the row. Each node within the sensing radius of
// an event reports the nearest one.
func BenchmarkLocationRound(b *testing.B) {
	b.Run("candidates=1", func(b *testing.B) {
		benchLocationRound(b, 5, []geo.Point{{X: 30, Y: 30}})
	})
	b.Run("candidates=4", func(b *testing.B) {
		benchLocationRound(b, 6, []geo.Point{{X: 20, Y: 20}, {X: 50, Y: 20}, {X: 20, Y: 50}, {X: 50, Y: 50}})
	})
}

func benchLocationRound(b *testing.B, g int, events []geo.Point) {
	round, check := newLocationRound(b, g, events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	check(b.N)
}

// TestLocationRoundAllocs holds the steady-state location round to its
// allocation budget: with the clusterer's storage and the vote's scratch
// reused, a round at candidates=4 allocates its outcome's candidate
// array and one array per vote for the decision's two sides.
func TestLocationRoundAllocs(t *testing.T) {
	round, check := newLocationRound(t, 6, []geo.Point{{X: 20, Y: 20}, {X: 50, Y: 20}, {X: 20, Y: 50}, {X: 50, Y: 50}})
	for i := 0; i < 4; i++ {
		round() // grow every scratch buffer
	}
	const budget = 8
	if got := testing.AllocsPerRun(50, round); got > budget {
		t.Fatalf("a location round at candidates=4 allocates %.1f objects, want at most %d", got, budget)
	}
	check(4 + 51)
}

// newLocationRound builds an aggregator over a g×g grid whose nodes each
// report the nearest of events, and returns one full round — deliver
// every report, close the window, cluster, and vote — and a check that n
// rounds decided one candidate per event.
func newLocationRound(tb testing.TB, g int, events []geo.Point) (round func(), check func(n int)) {
	const senseRadius = 25
	kernel := sim.New()
	table := core.MustNewTable(core.Params{Lambda: 0.25, FaultRate: 0.1})
	pos := benchGrid(g)
	var candidates int
	agg, err := NewLocation(
		LocationConfig{Tout: 1, RError: 5, SenseRadius: senseRadius},
		decision.Adapt(table), kernel, allIDs(len(pos)), pos,
		func(o LocationOutcome) { candidates += len(o.Candidates) }, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	offs := make(map[int]geo.Polar, len(pos))
	for id, origin := range pos {
		nearest := events[0]
		for _, ev := range events[1:] {
			if origin.Dist(ev) < origin.Dist(nearest) {
				nearest = ev
			}
		}
		if origin.Dist(nearest) <= senseRadius {
			offs[id] = geo.ToPolar(origin, nearest)
		}
	}
	round = func() {
		for id := 0; id < len(pos); id++ {
			if off, ok := offs[id]; ok {
				agg.Deliver(id, off)
			}
		}
		kernel.RunAll()
	}
	check = func(n int) {
		if agg.Rounds() != n || candidates != len(events)*n {
			tb.Fatalf("rounds = %d, candidates = %d, want %d and %d",
				agg.Rounds(), candidates, n, len(events)*n)
		}
	}
	return round, check
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
