package aggregator

import (
	"math"
	"slices"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

// locHarness wires a location aggregator over a 3×3 grid of nodes spaced
// 10 units apart, sensing radius 20, r_error 5.
type locHarness struct {
	agg      *Location
	table    *core.Table
	kernel   *sim.Kernel
	pos      []geo.Point
	outcomes []LocationOutcome
	verdicts map[int][]bool
}

func newLocHarness(t *testing.T, concurrent bool) *locHarness {
	t.Helper()
	h := &locHarness{
		kernel:   sim.New(),
		table:    core.MustNewTable(testTrustParams()),
		verdicts: make(map[int][]bool),
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			h.pos = append(h.pos, geo.Point{X: float64(10 + x*10), Y: float64(10 + y*10)})
		}
	}
	agg, err := NewLocation(
		LocationConfig{Tout: 1, RError: 5, SenseRadius: 20, Concurrent: concurrent},
		decision.Adapt(h.table), h.kernel, allIDs(len(h.pos)), h.pos,
		func(o LocationOutcome) { h.outcomes = append(h.outcomes, o) },
		func(id int, correct bool) { h.verdicts[id] = append(h.verdicts[id], correct) },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	h.agg = agg
	return h
}

// report sends node id's report claiming the event is at loc.
func (h *locHarness) report(id int, loc geo.Point) {
	h.agg.Deliver(id, geo.ToPolar(h.pos[id], loc))
}

func TestNewLocationValidation(t *testing.T) {
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	ids, pos := []int{0}, []geo.Point{{}}
	bad := []LocationConfig{
		{Tout: 0, RError: 5, SenseRadius: 20},
		{Tout: 1, RError: 0, SenseRadius: 20},
		{Tout: 1, RError: 5, SenseRadius: 0},
	}
	for i, cfg := range bad {
		if _, err := NewLocation(cfg, decision.Adapt(table), kernel, ids, pos, nil, nil, nil); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := LocationConfig{Tout: 1, RError: 5, SenseRadius: 20}
	if _, err := NewLocation(good, nil, kernel, ids, pos, nil, nil, nil); err == nil {
		t.Fatal("accepted nil weigher")
	}
	if _, err := NewLocation(good, decision.Adapt(table), nil, ids, pos, nil, nil, nil); err == nil {
		t.Fatal("accepted nil kernel")
	}
	if _, err := NewLocation(good, decision.Adapt(table), kernel, ids, nil, nil, nil, nil); err == nil {
		t.Fatal("accepted nil positions")
	}
}

func TestLocationDetectsWellReportedEvent(t *testing.T) {
	h := newLocHarness(t, false)
	ev := geo.Point{X: 20, Y: 20} // center node's position: everyone senses it
	for id := 0; id < 9; id++ {
		h.report(id, geo.Point{X: ev.X + 0.5, Y: ev.Y - 0.5})
	}
	h.kernel.RunAll()

	if len(h.outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(h.outcomes))
	}
	declared := h.outcomes[0].Declared()
	if len(declared) != 1 {
		t.Fatalf("declared %v", declared)
	}
	if declared[0].Dist(ev) > 5 {
		t.Fatalf("declared at %v, true %v", declared[0], ev)
	}
	for id := 0; id < 9; id++ {
		if h.table.V(id) != 0 {
			t.Fatalf("reporter %d penalized", id)
		}
	}
}

func TestLocationSilentNeighborsPenalized(t *testing.T) {
	h := newLocHarness(t, false)
	ev := geo.Point{X: 20, Y: 20}
	for id := 0; id < 6; id++ { // 6 report, 3 stay silent
		h.report(id, ev)
	}
	h.kernel.RunAll()
	for id := 6; id < 9; id++ {
		if h.table.V(id) == 0 {
			t.Fatalf("silent event neighbor %d not penalized", id)
		}
	}
}

func TestLocationOutlierThrownOutAndPenalized(t *testing.T) {
	// §3.2: "This design successfully throws out event reports from nodes
	// that make a localization error of more than r_error."
	h := newLocHarness(t, false)
	ev := geo.Point{X: 20, Y: 20}
	for id := 0; id < 8; id++ {
		h.report(id, ev)
	}
	h.report(8, geo.Point{X: 32, Y: 32}) // badly localized (node 8 is at (30,30))
	h.kernel.RunAll()

	declared := h.outcomes[0].Declared()
	if len(declared) != 1 {
		t.Fatalf("declared %v", declared)
	}
	if h.table.V(8) == 0 {
		t.Fatal("outlier not penalized")
	}
	if h.table.V(0) != 0 {
		t.Fatal("accurate reporter penalized")
	}
}

func TestLocationFabricatedClusterRejected(t *testing.T) {
	// A minority fabricating a common location loses the CTI vote against
	// the silent honest neighbors of that location.
	h := newLocHarness(t, false)
	lie := geo.Point{X: 20, Y: 20}
	h.report(0, lie)
	h.report(1, lie)
	h.kernel.RunAll()

	if got := h.outcomes[0].Declared(); len(got) != 0 {
		t.Fatalf("fabricated event declared: %v", got)
	}
	if h.table.V(0) == 0 || h.table.V(1) == 0 {
		t.Fatal("fabricators not penalized")
	}
}

func TestLocationRangeViolatorJudgedFaulty(t *testing.T) {
	h := newLocHarness(t, false)
	// Node 0 sits at (10,10); it claims an event at (48, 48): farther
	// than senseRadius+rError from it. Honest nodes near the claim can't
	// exist (no event), so the cluster is node 0 alone.
	claim := geo.Point{X: 48, Y: 48}
	if h.pos[0].Dist(claim) <= 25 {
		t.Fatal("setup: claim not a range violation")
	}
	h.report(0, claim)
	h.kernel.RunAll()

	if len(h.outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(h.outcomes))
	}
	cand := h.outcomes[0].Candidates[0]
	if len(cand.RangeViolators) != 1 || cand.RangeViolators[0] != 0 {
		t.Fatalf("violators = %v", cand.RangeViolators)
	}
	if cand.Occurred {
		t.Fatal("range violation declared an event")
	}
	if h.table.V(0) == 0 {
		t.Fatal("violator not penalized")
	}
	if len(h.verdicts[0]) == 0 || h.verdicts[0][0] {
		t.Fatalf("violator verdicts = %v, want faulty", h.verdicts[0])
	}
}

func TestLocationIsolatedReporterIgnored(t *testing.T) {
	kernel := sim.New()
	table := core.MustNewTable(core.Params{Lambda: 1, FaultRate: 0, RemovalThreshold: 0.5})
	table.Judge(3, false)
	pos := []geo.Point{3: {X: 10, Y: 10}}
	var outcomes []LocationOutcome
	agg, err := NewLocation(LocationConfig{Tout: 1, RError: 5, SenseRadius: 20},
		decision.Adapt(table), kernel, []int{3}, pos, func(o LocationOutcome) { outcomes = append(outcomes, o) }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.Deliver(3, geo.Polar{R: 1})
	kernel.RunAll()
	if len(outcomes) != 0 {
		t.Fatal("isolated node's report processed")
	}
}

func TestLocationUnknownSenderIgnored(t *testing.T) {
	h := newLocHarness(t, false)
	h.agg.Deliver(999, geo.Polar{R: 1})
	h.kernel.RunAll()
	if len(h.outcomes) != 0 {
		t.Fatal("unknown sender's report processed")
	}
}

func TestLocationTwoConcurrentEvents(t *testing.T) {
	h := newLocHarness(t, true)
	evA := geo.Point{X: 12, Y: 12}
	evB := geo.Point{X: 38, Y: 38}
	// Every node reports the event it senses; nodes 5, 7, 8 are event
	// neighbors of B, the rest of A.
	for _, id := range []int{0, 1, 2, 3, 4, 6} {
		h.report(id, evA)
	}
	for _, id := range []int{5, 7, 8} {
		h.report(id, evB)
	}
	h.kernel.RunAll()

	var declared []geo.Point
	for _, o := range h.outcomes {
		declared = append(declared, o.Declared()...)
	}
	if len(declared) != 2 {
		t.Fatalf("declared %d events: %v", len(declared), declared)
	}
	foundA, foundB := false, false
	for _, d := range declared {
		if d.Dist(evA) <= 5 {
			foundA = true
		}
		if d.Dist(evB) <= 5 {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("concurrent events not separated: %v", declared)
	}
}

func TestLocationConcurrentRoundsCount(t *testing.T) {
	h := newLocHarness(t, true)
	h.report(0, geo.Point{X: 12, Y: 12})
	h.kernel.RunAll()
	if h.agg.Rounds() != 1 {
		t.Fatalf("Rounds() = %d", h.agg.Rounds())
	}
}

func TestLocationPolarConversionAccuracy(t *testing.T) {
	// The CH must resolve (r, θ) against the *sender's* position.
	h := newLocHarness(t, false)
	ev := geo.Point{X: 20, Y: 20}
	off := geo.ToPolar(h.pos[8], ev) // node 8 at (30,30)
	h.agg.Deliver(8, off)
	h.kernel.RunAll()
	cand := h.outcomes[0].Candidates[0]
	if cand.Loc.Dist(ev) > 1e-9 {
		t.Fatalf("resolved %v, want %v", cand.Loc, ev)
	}
}

func TestLocationDecisionMarginMath(t *testing.T) {
	h := newLocHarness(t, false)
	ev := geo.Point{X: 20, Y: 20}
	for id := 0; id < 9; id++ {
		h.report(id, ev)
	}
	h.kernel.RunAll()
	cand := h.outcomes[0].Candidates[0]
	if math.Abs(cand.Decision.CTIFor-9) > 1e-9 || cand.Decision.CTIAgainst != 0 {
		t.Fatalf("CTIs = %v / %v", cand.Decision.CTIFor, cand.Decision.CTIAgainst)
	}
}

func TestTrustWeightedCentroidPullsTowardTrusted(t *testing.T) {
	// Two trusted reporters at the true location, one distrusted reporter
	// pulling the plain centroid away: the weighted location must land
	// nearer the trusted pair.
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	for i := 0; i < 10; i++ {
		table.Judge(2, false) // node 2 is heavily distrusted
	}
	pos := []geo.Point{
		{X: 10, Y: 10},
		{X: 20, Y: 10},
		{X: 15, Y: 20},
	}
	var outcomes []LocationOutcome
	agg, err := NewLocation(
		LocationConfig{Tout: 1, RError: 5, SenseRadius: 25, TrustWeightedCentroid: true},
		decision.Adapt(table), kernel, allIDs(len(pos)), pos,
		func(o LocationOutcome) { outcomes = append(outcomes, o) }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth := geo.Point{X: 15, Y: 12}
	skewed := geo.Point{X: 18, Y: 15} // node 2's bad report, within r_error
	agg.Deliver(0, geo.ToPolar(pos[0], truth))
	agg.Deliver(1, geo.ToPolar(pos[1], truth))
	agg.Deliver(2, geo.ToPolar(pos[2], skewed))
	kernel.RunAll()

	if len(outcomes) != 1 || len(outcomes[0].Declared()) != 1 {
		t.Fatalf("outcomes = %v", outcomes)
	}
	declared := outcomes[0].Declared()[0]
	plainCG, _ := geo.Centroid([]geo.Point{truth, truth, skewed})
	if declared.Dist(truth) >= plainCG.Dist(truth) {
		t.Fatalf("weighted location %v no closer to truth than plain cg %v",
			declared, plainCG)
	}
}

func TestTrustWeightedCentroidOffByDefault(t *testing.T) {
	h := newLocHarness(t, false)
	// The default harness config leaves the option unset; declared
	// locations are plain centroids.
	ev := geo.Point{X: 20, Y: 20}
	for id := 0; id < 9; id++ {
		h.report(id, geo.Point{X: ev.X + float64(id%3) - 1, Y: ev.Y})
	}
	h.kernel.RunAll()
	declared := h.outcomes[0].Declared()
	if len(declared) != 1 {
		t.Fatalf("declared = %v", declared)
	}
	cg, _ := geo.Centroid(func() []geo.Point {
		var pts []geo.Point
		for id := 0; id < 9; id++ {
			pts = append(pts, geo.Point{X: ev.X + float64(id%3) - 1, Y: ev.Y})
		}
		return pts
	}())
	if declared[0].Dist(cg) > 1e-9 {
		t.Fatalf("default location %v is not the plain centroid %v", declared[0], cg)
	}
}

// TestDeclaredCandidatesSeparated: within one aggregation round, candidate
// locations inherit the clustering invariant — pairwise farther apart than
// r_error — so the CH can never declare two "events" on top of each other.
func TestDeclaredCandidatesSeparated(t *testing.T) {
	h := newLocHarness(t, false)
	// A messy round: two tight groups plus scattered outliers.
	h.report(0, geo.Point{X: 12, Y: 12})
	h.report(1, geo.Point{X: 13, Y: 12})
	h.report(3, geo.Point{X: 12, Y: 13})
	h.report(5, geo.Point{X: 38, Y: 38})
	h.report(7, geo.Point{X: 39, Y: 38})
	h.report(8, geo.Point{X: 37, Y: 39})
	h.report(2, geo.Point{X: 25, Y: 24})
	h.report(6, geo.Point{X: 24, Y: 40})
	h.kernel.RunAll()

	if len(h.outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(h.outcomes))
	}
	cands := h.outcomes[0].Candidates
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if d := cands[i].Loc.Dist(cands[j].Loc); d <= 5 {
				t.Fatalf("candidates %v and %v only %v apart", cands[i].Loc, cands[j].Loc, d)
			}
		}
	}
}

// TestLocationSilentSetMatchesScan checks the position table against a
// brute-force scan on random layouts: every candidate's silent side is the
// ascending list of members within the sensing radius of the candidate
// location that are not its reporters. The table also holds positions of
// nodes outside the cluster, which must never vote. Construction rejects
// a member list that is unsorted, duplicated or outside the table.
func TestLocationSilentSetMatchesScan(t *testing.T) {
	src := rng.New(22)
	cfg := LocationConfig{Tout: 1, RError: 5, SenseRadius: 20}
	for trial := 0; trial < 30; trial++ {
		n := 8 + src.Intn(57)
		pos := make([]geo.Point, 500)
		for id := range pos {
			pos[id] = geo.Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
		}
		ids := src.Perm(len(pos))[:n]
		slices.Sort(ids)

		kernel := sim.New()
		scheme := decision.Adapt(core.MustNewTable(testTrustParams()))
		var outcomes []LocationOutcome
		agg, err := NewLocation(cfg, scheme, kernel, ids, pos,
			func(o LocationOutcome) { outcomes = append(outcomes, o) }, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		events := rng.New(int64(trial))
		for round := 0; round < 3; round++ {
			evs := make([]geo.Point, 2+events.Intn(3))
			for i := range evs {
				evs[i] = geo.Point{X: events.Uniform(0, 100), Y: events.Uniform(0, 100)}
			}
			for _, id := range ids {
				origin := pos[id]
				claim := evs[events.Intn(len(evs))]
				if origin.Dist(claim) > cfg.SenseRadius && !events.Bernoulli(0.1) {
					continue
				}
				claim.X += events.Gaussian(0, 1)
				claim.Y += events.Gaussian(0, 1)
				agg.Deliver(id, geo.ToPolar(origin, claim))
			}
			kernel.RunAll()
		}
		candidates := 0
		for _, o := range outcomes {
			for _, c := range o.Candidates {
				candidates++
				var silent []int
				for _, id := range ids {
					if !slices.Contains(c.Decision.Reporters, id) && pos[id].Dist(c.Loc) <= cfg.SenseRadius {
						silent = append(silent, id)
					}
				}
				if !slices.Equal(c.Decision.Silent, silent) {
					t.Fatalf("trial %d: candidate at %v: silent %v, scan %v", trial, c.Loc, c.Decision.Silent, silent)
				}
			}
		}
		if candidates < 3 {
			t.Fatalf("trial %d: only %d candidates", trial, candidates)
		}

		k := 1 + src.Intn(n-1)
		for name, members := range map[string][]int{
			"unsorted":     append(slices.Clone(ids[:k-1]), ids[k], ids[k-1]),
			"duplicated":   append(slices.Clone(ids[:k]), ids[k-1]),
			"negative":     append([]int{-1}, ids...),
			"out of range": append(slices.Clone(ids), len(pos)),
		} {
			if _, err := NewLocation(cfg, scheme, sim.New(), members, pos, nil, nil, nil); err == nil {
				t.Fatalf("trial %d: %s member list %v accepted", trial, name, members)
			}
		}
	}
}

// allIDs returns the member list 0 … n-1.
func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
