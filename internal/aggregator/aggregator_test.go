package aggregator

import (
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
)

func testTrustParams() core.Params {
	return core.Params{Lambda: 0.25, FaultRate: 0.1}
}

func newBinaryHarness(t *testing.T, members []int) (*Binary, *core.Table, *sim.Kernel, *[]BinaryOutcome) {
	t.Helper()
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	var outcomes []BinaryOutcome
	b, err := NewBinary(
		BinaryConfig{Tout: 1, Members: members},
		decision.Adapt(table), kernel,
		func(o BinaryOutcome) { outcomes = append(outcomes, o) },
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b, table, kernel, &outcomes
}

func TestNewBinaryValidation(t *testing.T) {
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	if _, err := NewBinary(BinaryConfig{Tout: 0, Members: []int{1}}, decision.Adapt(table), kernel, nil, nil, nil); err == nil {
		t.Fatal("accepted zero Tout")
	}
	if _, err := NewBinary(BinaryConfig{Tout: 1}, decision.Adapt(table), kernel, nil, nil, nil); err == nil {
		t.Fatal("accepted empty members")
	}
	if _, err := NewBinary(BinaryConfig{Tout: 1, Members: []int{1}}, nil, kernel, nil, nil, nil); err == nil {
		t.Fatal("accepted nil weigher")
	}
	if _, err := NewBinary(BinaryConfig{Tout: 1, Members: []int{1}}, decision.Adapt(table), nil, nil, nil, nil); err == nil {
		t.Fatal("accepted nil kernel")
	}
}

func TestBinaryWindowDeclaresEvent(t *testing.T) {
	members := []int{0, 1, 2, 3, 4}
	b, table, kernel, outcomes := newBinaryHarness(t, members)

	// 3 of 5 report.
	for _, id := range []int{0, 1, 2} {
		b.Deliver(id)
	}
	kernel.RunAll()

	if len(*outcomes) != 1 {
		t.Fatalf("got %d outcomes", len(*outcomes))
	}
	o := (*outcomes)[0]
	if !o.Decision.Occurred {
		t.Fatalf("event not declared: %v", o)
	}
	if o.TriggerTime != 0 || o.DecideTime != 1 {
		t.Fatalf("window times = %v, %v", o.TriggerTime, o.DecideTime)
	}
	// Winners keep full trust; silent losers are penalized.
	for _, id := range []int{0, 1, 2} {
		if table.V(id) != 0 {
			t.Fatalf("reporter %d penalized", id)
		}
	}
	for _, id := range []int{3, 4} {
		if table.V(id) == 0 {
			t.Fatalf("silent node %d not penalized", id)
		}
	}
}

func TestBinaryLoneFalseAlarmRejected(t *testing.T) {
	members := []int{0, 1, 2, 3, 4}
	b, table, kernel, outcomes := newBinaryHarness(t, members)
	b.Deliver(4)
	kernel.RunAll()
	o := (*outcomes)[0]
	if o.Decision.Occurred {
		t.Fatalf("lone false alarm won: %v", o)
	}
	if table.V(4) == 0 {
		t.Fatal("false alarmer not penalized")
	}
	if table.V(0) != 0 {
		t.Fatal("silent majority penalized")
	}
}

func TestBinaryReportsAfterWindowStartNewWindow(t *testing.T) {
	members := []int{0, 1, 2}
	b, _, kernel, outcomes := newBinaryHarness(t, members)
	b.Deliver(0)
	kernel.Run(1) // close the first window
	b.Deliver(1)
	b.Deliver(2)
	kernel.RunAll()
	if len(*outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(*outcomes))
	}
	if (*outcomes)[0].Decision.Occurred {
		t.Fatal("first lone report won")
	}
	if !(*outcomes)[1].Decision.Occurred {
		t.Fatal("second window with 2/3 reports lost")
	}
	if b.Windows() != 2 {
		t.Fatalf("Windows() = %d", b.Windows())
	}
}

func TestBinaryDuplicateDeliveriesCountOnce(t *testing.T) {
	members := []int{0, 1, 2}
	b, _, kernel, outcomes := newBinaryHarness(t, members)
	b.Deliver(0)
	b.Deliver(0)
	b.Deliver(0)
	kernel.RunAll()
	o := (*outcomes)[0]
	if len(o.Decision.Reporters) != 1 {
		t.Fatalf("duplicates inflated reporters: %v", o.Decision.Reporters)
	}
}

// TestBinaryDeliverIntoOpenWindowDoesNotAllocate pins the ingest hot
// path at zero allocations per report once the window is open: the
// expiry callback is bound at construction, not rebuilt per Deliver.
func TestBinaryDeliverIntoOpenWindowDoesNotAllocate(t *testing.T) {
	b, _, kernel, outcomes := newBinaryHarness(t, []int{0, 1, 2, 3, 4})
	b.Deliver(0) // opens the window
	node := 0
	allocs := testing.AllocsPerRun(100, func() {
		b.Deliver(node % 5)
		node++
	})
	if allocs != 0 {
		t.Fatalf("Deliver into an open window allocates %.2f objects/report, want 0", allocs)
	}
	kernel.RunAll()
	if len(*outcomes) != 1 || len((*outcomes)[0].Decision.Reporters) != 5 {
		t.Fatalf("outcomes = %+v, want one window with all 5 reporters", *outcomes)
	}
}

func TestBinaryIgnoresIsolatedReporters(t *testing.T) {
	members := []int{0, 1, 2}
	kernel := sim.New()
	table := core.MustNewTable(core.Params{Lambda: 1, FaultRate: 0, RemovalThreshold: 0.5})
	table.Judge(0, false) // isolate node 0
	if !table.Isolated(0) {
		t.Fatal("setup: node not isolated")
	}
	var outcomes []BinaryOutcome
	b, err := NewBinary(BinaryConfig{Tout: 1, Members: members}, decision.Adapt(table), kernel,
		func(o BinaryOutcome) { outcomes = append(outcomes, o) }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Deliver(0) // must not even open a window
	kernel.RunAll()
	if len(outcomes) != 0 {
		t.Fatalf("isolated node opened a window: %v", outcomes)
	}
}

func TestBinaryFeedbackBroadcast(t *testing.T) {
	members := []int{0, 1, 2}
	kernel := sim.New()
	table := core.MustNewTable(testTrustParams())
	verdicts := make(map[int]bool)
	b, err := NewBinary(BinaryConfig{Tout: 1, Members: members}, decision.Adapt(table), kernel,
		nil, func(id int, correct bool) { verdicts[id] = correct }, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Deliver(0)
	b.Deliver(1)
	kernel.RunAll()
	want := map[int]bool{0: true, 1: true, 2: false}
	for id, correct := range want {
		if got, ok := verdicts[id]; !ok || got != correct {
			t.Fatalf("verdict[%d] = %v, want %v", id, got, correct)
		}
	}
}

func TestBinaryTrustedMinorityWins(t *testing.T) {
	// After the faulty majority's trust decays, 2 reliable reporters must
	// outvote 3 distrusted silent nodes — the paper's core claim.
	members := []int{0, 1, 2, 3, 4}
	b, table, kernel, outcomes := newBinaryHarness(t, members)
	for _, id := range []int{2, 3, 4} {
		for i := 0; i < 12; i++ {
			table.Judge(id, false)
		}
	}
	b.Deliver(0)
	b.Deliver(1)
	kernel.RunAll()
	o := (*outcomes)[0]
	if !o.Decision.Occurred {
		t.Fatalf("trusted minority lost: %v", o.Decision)
	}
}
