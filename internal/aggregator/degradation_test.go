package aggregator

import (
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
)

// TestBinaryAliveHookExcludesDownMembers pins graceful degradation: a
// member the Alive hook reports down is left out of the non-reporter
// set, so its silence is neither voted nor trust-penalized.
func TestBinaryAliveHookExcludesDownMembers(t *testing.T) {
	members := []int{0, 1, 2, 3, 4}
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	downed := map[int]bool{3: true, 4: true}
	var outcomes []BinaryOutcome
	b, err := NewBinary(
		BinaryConfig{Tout: 1, Members: members, Alive: func(id int) bool { return !downed[id] }},
		decision.Adapt(table), kernel,
		func(o BinaryOutcome) { outcomes = append(outcomes, o) },
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 of the 3 live members report; the 2 down members are silent.
	b.Deliver(0)
	b.Deliver(1)
	kernel.RunAll()

	if len(outcomes) != 1 || !outcomes[0].Decision.Occurred {
		t.Fatalf("outcomes = %+v, want one declared event", outcomes)
	}
	d := outcomes[0].Decision
	if len(d.Silent) != 1 || d.Silent[0] != 2 {
		t.Fatalf("silent set = %v, want only the live non-reporter 2", d.Silent)
	}
	for id := range downed {
		if _, seen := table.Record(id); seen {
			t.Fatalf("down member %d was trust-judged for its silence", id)
		}
	}
	// The live non-reporter loses trust as usual.
	if table.V(2) == 0 {
		t.Fatal("live silent member escaped the penalty")
	}
}

// TestBinaryNilAliveMatchesPaper pins the compatibility default: without
// an Alive hook every silent member lands in the non-reporter set.
func TestBinaryNilAliveMatchesPaper(t *testing.T) {
	members := []int{0, 1, 2}
	b, table, kernel, outcomes := newBinaryHarness(t, members)
	b.Deliver(0)
	b.Deliver(1)
	kernel.RunAll()
	if len(*outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(*outcomes))
	}
	if table.V(2) == 0 {
		t.Fatal("silent member escaped the penalty without an Alive hook")
	}
}

// TestBinaryCloseKillsPendingWindow pins crash semantics: a closed
// aggregator (dead head) absorbs deliveries and never decides.
func TestBinaryCloseKillsPendingWindow(t *testing.T) {
	members := []int{0, 1, 2}
	b, _, kernel, outcomes := newBinaryHarness(t, members)
	b.Deliver(0)
	b.Deliver(1)
	b.Close()
	if !b.Closed() {
		t.Fatal("Closed() false after Close")
	}
	b.Deliver(2)
	kernel.RunAll()
	if len(*outcomes) != 0 {
		t.Fatalf("closed aggregator still decided: %+v", *outcomes)
	}
}

// TestLocationCloseKillsPendingWindow is the location-mode twin.
func TestLocationCloseKillsPendingWindow(t *testing.T) {
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	pos := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	var decided int
	l, err := NewLocation(LocationConfig{Tout: 1, RError: 5, SenseRadius: 20}, decision.Adapt(table), kernel, allIDs(len(pos)), pos,
		func(o LocationOutcome) { decided++ }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Deliver(0, geo.Polar{R: 1})
	l.Deliver(1, geo.Polar{R: 1})
	l.Close()
	if !l.Closed() {
		t.Fatal("Closed() false after Close")
	}
	l.Deliver(2, geo.Polar{R: 1})
	kernel.RunAll()
	if decided != 0 {
		t.Fatalf("closed location aggregator still decided %d times", decided)
	}
}
