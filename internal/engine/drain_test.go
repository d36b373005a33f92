package engine

import (
	"errors"
	"fmt"
	"testing"

	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
)

// stubInstance builds an instance on a fake clock whose timers never
// wake on their own: windows close only through w.fire() or through the
// instance's own entry-point drains. decided collects OnDecision calls, an
// observer that does not itself drain.
func stubInstance(t *testing.T, scheme string, tout sim.Duration, n int) (*Instance, *fakeClock, func(float64), *[]Decision) {
	t.Helper()
	w, advance := newFakeClock()
	var decided []Decision
	inst, err := New(Config{
		Scheme: scheme, Params: engineParams(), Tout: tout,
		Members: members(n), Clock: w,
		OnDecision: func(d Decision) { decided = append(decided, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	return inst, w, advance, &decided
}

// TestDecisionsSinceDrainsDueWindow pins the poll side of due-driven
// expiry: a poll strictly after a window's deadline sees its decision
// with no timer firing, and the decision is stamped with the deadline,
// not the poll time. A poll exactly at the deadline does not drain.
func TestDecisionsSinceDrainsDueWindow(t *testing.T) {
	inst, w, advance, _ := stubInstance(t, decision.SchemeTIBFIT, 5, 3)
	if err := inst.Report(0); err != nil {
		t.Fatal(err)
	}
	advance(5)
	if ds := inst.DecisionsSince(0); len(ds) != 0 {
		t.Fatalf("poll at the deadline: %+v, want nothing (the drain is strict)", ds)
	}
	advance(7.25)
	ds := inst.DecisionsSince(0)
	if len(ds) != 1 || ds[0].Seq != 1 || intsKey(ds[0].Reporters) != intsKey([]int{0}) {
		t.Fatalf("poll after the deadline: %+v, want one decision with reporter 0", ds)
	}
	//lint:allow floateq the stamps are exact stub-clock values
	if ds[0].Trigger != 0 || ds[0].Decided != 5 {
		t.Fatalf("decision stamped trigger=%v decided=%v, want 0 and the deadline 5", ds[0].Trigger, ds[0].Decided)
	}
	w.fire() // the window's own timer now finds nothing due
	if got := inst.DecisionCount(); got != 1 {
		t.Fatalf("DecisionCount after the stale timer = %d, want 1", got)
	}
}

// TestLateReportOpensNewWindow pins the ingest side: a report stamped
// after the deadline closes the due window first and opens a new one,
// and the closed window's stale timer does not close the new one.
func TestLateReportOpensNewWindow(t *testing.T) {
	inst, w, advance, decided := stubInstance(t, decision.SchemeTIBFIT, 5, 3)
	if err := inst.Report(0); err != nil {
		t.Fatal(err)
	}
	advance(5.5)
	if err := inst.Report(1); err != nil {
		t.Fatal(err)
	}
	if len(*decided) != 1 {
		t.Fatalf("%d decisions after the late report, want 1 (the due window)", len(*decided))
	}
	advance(6)
	w.fire() // pops the first window's timer: stale, must not close window 2
	if len(*decided) != 1 {
		t.Fatalf("%d decisions after the stale timer, want 1", len(*decided))
	}
	advance(20)
	ds := inst.DecisionsSince(0)
	if len(ds) != 2 || intsKey(ds[0].Reporters) != intsKey([]int{0}) ||
		intsKey(ds[1].Reporters) != intsKey([]int{1}) {
		t.Fatalf("decisions %+v, want [0] then [1]", ds)
	}
	//lint:allow floateq the stamps are exact stub-clock values
	if ds[1].Trigger != 5.5 || ds[1].Decided != 10.5 {
		t.Fatalf("second window trigger=%v decided=%v, want 5.5 and 10.5", ds[1].Trigger, ds[1].Decided)
	}
}

// TestEveryEntryPointDrains calls each tenant entry point once, after a
// window's deadline, and checks that the call alone made the decision.
func TestEveryEntryPointDrains(t *testing.T) {
	entries := map[string]func(*Instance){
		"Report":         func(in *Instance) { _ = in.Report(2) },
		"ReportMany":     func(in *Instance) { _ = in.ReportMany([]int{2}) },
		"DecisionsSince": func(in *Instance) { _ = in.DecisionsSince(0) },
		"DecisionCount":  func(in *Instance) { _ = in.DecisionCount() },
		"TrustTable":     func(in *Instance) { _ = in.TrustTable() },
		"IsolatedNodes":  func(in *Instance) { _ = in.IsolatedNodes() },
		"TI":             func(in *Instance) { _ = in.TI(0) },
		"SealedSnapshot": func(in *Instance) { _, _ = in.SealedSnapshot() },
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			inst, _, advance, decided := stubInstance(t, decision.SchemeTIBFIT, 5, 3)
			if err := inst.Report(0); err != nil {
				t.Fatal(err)
			}
			advance(6)
			call(inst)
			if len(*decided) != 1 || intsKey((*decided)[0].Reporters) != intsKey([]int{0}) {
				t.Fatalf("%s after the deadline: decisions %+v, want one with reporter 0", name, *decided)
			}
		})
	}
}

// TestDrainMatchesTimerExpiry feeds one stamped report stream through
// two instances: one whose windows close only by timer (w.fire() before
// each arrival, the way the batch-equivalence tests drive it), one whose
// windows close only by entry-point drains (the timer never fires). The
// decision streams — seq, verdict, both sides, trigger and decided — and
// the trust tables must be identical bit for bit, for every scheme. No
// arrival in the stream lands exactly on a deadline, the one instant
// where the strict entry-point rule and a timer at the deadline part
// ways by design.
func TestDrainMatchesTimerExpiry(t *testing.T) {
	const (
		nMembers = 11
		nReports = 400
		tout     = sim.Duration(0.7)
	)
	stream := seededStream(44, nReports, nMembers)
	end := float64(stream[len(stream)-1].at) + float64(tout) + 1
	for _, name := range decision.Names() {
		// A tenant is one event location; the subtest names keep their
		// "shards=1" form so runs stay comparable by name.
		t.Run("shards=1/"+name, func(t *testing.T) {
			timed, w, advanceT, timedDs := stubInstance(t, name, tout, nMembers)
			for _, ev := range stream {
				advanceT(float64(ev.at))
				w.fire()
				if err := timed.Report(ev.node); err != nil {
					t.Fatal(err)
				}
			}
			advanceT(end)
			w.fire()

			drained, _, advanceD, drainedDs := stubInstance(t, name, tout, nMembers)
			for i, ev := range stream {
				advanceD(float64(ev.at))
				if err := drained.Report(ev.node); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					_ = drained.DecisionsSince(0) // polls between reports change nothing
				}
			}
			advanceD(end)
			polled := drained.DecisionsSince(0)

			if len(*timedDs) < 20 || len(*timedDs) != len(*drainedDs) || len(polled) != len(*drainedDs) {
				t.Fatalf("timer made %d decisions, drains %d (poll saw %d)", len(*timedDs), len(*drainedDs), len(polled))
			}
			for i, a := range *timedDs {
				if key(a) != key((*drainedDs)[i]) || key(polled[i]) != key(a) {
					t.Fatalf("decision %d diverges:\n timer %+v\n drain %+v", i, a, (*drainedDs)[i])
				}
			}
			tt, dt := timed.TrustTable(), drained.TrustTable()
			for i := range tt {
				//lint:allow floateq equivalence demands bit-identical trust, not approximate
				if tt[i] != dt[i] {
					t.Fatalf("trust row %d: timer %+v, drain %+v", i, tt[i], dt[i])
				}
			}
		})
	}
}

// key renders every field of a decision that equivalence compares.
func key(d Decision) string {
	return fmt.Sprintf("%d %t %b %b %v %v %b %b", d.Seq, d.Occurred, d.CTIFor, d.CTIAgainst,
		d.Reporters, d.Silent, d.Trigger, d.Decided)
}

// TestReportManyCountsDecisions pins the decision count a batch returns:
// it is read after the batch's own drain, so it includes the window the
// batch closed and not the one the batch opened.
func TestReportManyCountsDecisions(t *testing.T) {
	inst, _, advance, _ := stubInstance(t, decision.SchemeTIBFIT, 5, 3)
	if res := inst.ReportMany([]int{0}); res.Decisions != 0 {
		t.Fatalf("first batch: Decisions = %d, want 0", res.Decisions)
	}
	advance(6)
	if res := inst.ReportMany([]int{1, 2}); res.Accepted != 2 || res.Decisions != 1 {
		t.Fatalf("batch after the deadline = %+v, want Accepted 2, Decisions 1", res)
	}
	inst.Close()
	if res := inst.ReportMany([]int{1}); !errors.Is(res.Err, ErrClosed) || res.Decisions != 1 {
		t.Fatalf("batch after Close = %+v, want ErrClosed, Decisions 1", res)
	}
}
