package sim

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	k := New()
	var got []float64
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		if _, err := k.At(at, func() { got = append(got, float64(at)) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSimultaneousEventsFireFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := k.At(7, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order = %v, want FIFO", got)
		}
	}
}

// TestZeroValueKernel pins that a zero-value Kernel needs no constructor:
// before the first schedule it reports an empty queue and dispatches
// nothing, and afterwards it builds its queue on demand, stops a timer,
// and runs the rest in (at, seq) order.
func TestZeroValueKernel(t *testing.T) {
	var k Kernel
	if k.Pending() != 0 || k.Step() || k.Run(End) != 0 {
		t.Fatal("empty zero-value kernel reported or dispatched work")
	}
	var got []int
	for i, at := range []Time{3, 1, 3, 2, 1} {
		i := i
		if _, err := k.At(at, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	stopped := k.After(2, func() { t.Fatal("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("Stop failed on a pending timer")
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", k.Pending())
	}
	if n := k.RunAll(); n != 5 {
		t.Fatalf("RunAll dispatched %d events, want 5", n)
	}
	want := []int{1, 4, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", k.Now())
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := New()
	k.After(3.5, func() {
		if k.Now() != 3.5 {
			t.Fatalf("Now() inside handler = %v, want 3.5", k.Now())
		}
	})
	k.RunAll()
	if k.Now() != 3.5 {
		t.Fatalf("Now() after run = %v, want 3.5", k.Now())
	}
}

func TestSchedulingInThePastFails(t *testing.T) {
	k := New()
	k.After(5, func() {
		if _, err := k.At(1, func() {}); !errors.Is(err, ErrPastTime) {
			t.Fatalf("At(past) err = %v, want ErrPastTime", err)
		}
	})
	k.RunAll()
}

func TestAfterNegativeDelayFiresNow(t *testing.T) {
	k := New()
	fired := false
	k.After(2, func() {
		k.After(-1, func() {
			fired = true
			if k.Now() != 2 {
				t.Fatalf("negative delay fired at %v, want 2", k.Now())
			}
		})
	})
	k.RunAll()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	fired := false
	tm := k.After(1, func() { fired = true })
	if !tm.Active() {
		t.Fatal("fresh timer not active")
	}
	if !tm.Stop() {
		t.Fatal("Stop() reported failure on pending timer")
	}
	if tm.Active() {
		t.Fatal("stopped timer still active")
	}
	if tm.Stop() {
		t.Fatal("second Stop() reported success")
	}
	k.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := New()
	tm := k.After(1, func() {})
	k.RunAll()
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	if tm.Stop() {
		t.Fatal("Stop() on fired timer reported success")
	}
}

func TestTimerWhen(t *testing.T) {
	k := New()
	tm := k.After(4, func() {})
	if tm.When() != 4 {
		t.Fatalf("When() = %v, want 4", tm.When())
	}
	var nilTimer Timer
	if nilTimer.When() != End {
		t.Fatal("nil timer When() != End")
	}
	if nilTimer.Stop() || nilTimer.Active() {
		t.Fatal("nil timer Stop/Active misbehaved")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := New()
	var got []float64
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		_, _ = k.At(at, func() { got = append(got, float64(at)) })
	}
	n := k.Run(3)
	if n != 3 || len(got) != 3 {
		t.Fatalf("Run(3) dispatched %d events (%v), want 3", n, got)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", k.Pending())
	}
	k.RunAll()
	if len(got) != 5 {
		t.Fatalf("RunAll left events behind: %v", got)
	}
}

func TestRunAdvancesClockToHorizon(t *testing.T) {
	k := New()
	k.Run(10)
	if k.Now() != 10 {
		t.Fatalf("Now() = %v after empty Run(10), want 10", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New()
	count := 0
	for i := 0; i < 10; i++ {
		k.After(Duration(i+1), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.RunAll()
	if count != 3 {
		t.Fatalf("dispatched %d events after Stop at 3", count)
	}
	// A later Run resumes.
	k.RunAll()
	if count != 10 {
		t.Fatalf("resume dispatched to %d, want 10", count)
	}
}

func TestStep(t *testing.T) {
	k := New()
	count := 0
	k.After(1, func() { count++ })
	k.After(2, func() { count++ })
	if !k.Step() || count != 1 {
		t.Fatalf("Step 1: count = %d", count)
	}
	if !k.Step() || count != 2 {
		t.Fatalf("Step 2: count = %d", count)
	}
	if k.Step() {
		t.Fatal("Step on empty queue reported work")
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	k := New()
	fired := false
	tm := k.After(1, func() { t.Fatal("cancelled event fired") })
	k.After(2, func() { fired = true })
	tm.Stop()
	if !k.Step() || !fired {
		t.Fatal("Step did not skip cancelled event")
	}
}

func TestStopRemovesEventFromQueue(t *testing.T) {
	k := New()
	tm := k.After(1, func() {})
	k.After(2, func() {})
	k.After(3, func() {})
	if k.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", k.Pending())
	}
	tm.Stop()
	if k.Pending() != 2 {
		t.Fatalf("Pending() after Stop = %d, want 2 (eager removal)", k.Pending())
	}
}

// TestStaleTimerHandleAfterRecycle pins the generation-counter safety net:
// once a stopped timer's record is reused by a later schedule, the old
// handle must stay inert and must not be able to cancel the new event.
func TestStaleTimerHandleAfterRecycle(t *testing.T) {
	k := New()
	old := k.After(1, func() { t.Fatal("stopped event fired") })
	old.Stop()
	fired := false
	fresh := k.After(2, func() { fired = true })
	if old.ev != fresh.ev {
		t.Skip("free list did not reuse the record; nothing to pin")
	}
	if old.Active() {
		t.Fatal("stale handle reports active")
	}
	if old.Stop() {
		t.Fatal("stale handle cancelled someone else's event")
	}
	if old.When() != End {
		t.Fatalf("stale When() = %v, want End", old.When())
	}
	k.RunAll()
	if !fired {
		t.Fatal("fresh event lost to a stale handle")
	}
}

func TestTimerWhenAfterStopAndFire(t *testing.T) {
	k := New()
	stopped := k.After(1, func() {})
	stopped.Stop()
	if stopped.When() != End {
		t.Fatalf("stopped When() = %v, want End", stopped.When())
	}
	firing := k.After(2, func() {})
	k.RunAll()
	if firing.When() != End {
		t.Fatalf("fired When() = %v, want End", firing.When())
	}
}

// TestSteadyStateSchedulingDoesNotAllocateEvents checks the free list: in
// a schedule/dispatch steady state the event record is recycled, and
// neither the Timer handle (a value) nor stopping or querying it
// allocates.
func TestSteadyStateSchedulingDoesNotAllocateEvents(t *testing.T) {
	k := New()
	fn := func() {}
	k.After(1, fn)
	k.Step() // prime the free list
	for name, cycle := range map[string]func(){
		"After+Step": func() {
			k.After(1, fn)
			k.Step()
		},
		"At+Step": func() {
			if _, err := k.At(k.Now()+1, fn); err != nil {
				t.Fatal(err)
			}
			k.Step()
		},
		"After+When+Stop": func() {
			tm := k.After(1, fn)
			if tm.When() != k.Now()+1 || !tm.Stop() || tm.When() != End {
				t.Fatal("timer handle misbehaved")
			}
		},
	} {
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("%s allocates %.1f objects/op in steady state, want 0", name, avg)
		}
	}
}

func TestHandlersCanScheduleMoreWork(t *testing.T) {
	k := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.After(1, recurse)
		}
	}
	k.After(1, recurse)
	k.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Fired() != 100 {
		t.Fatalf("Fired() = %d, want 100", k.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	if got := Time(3).Add(2); got != 5 {
		t.Fatalf("Add = %v", got)
	}
	if got := Time(5).Sub(2); got != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if s := Time(1.5).String(); s != "t=1.500" {
		t.Fatalf("String = %q", s)
	}
}

// Property: for any set of scheduling offsets, events fire in
// non-decreasing time order and all non-cancelled events fire exactly once.
func TestDispatchOrderProperty(t *testing.T) {
	check := func(offsets []uint16) bool {
		k := New()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			_, err := k.At(at, func() { fired = append(fired, at) })
			if err != nil {
				return false
			}
		}
		k.RunAll()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelStress pushes a million timer events (including mid-run
// scheduling and cancellations) through the queue to catch heap bugs that
// only appear at scale.
func TestKernelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	k := New()
	const n = 1_000_000
	fired := 0
	var timers []Timer
	for i := 0; i < n; i++ {
		at := Time((i * 7919) % 104729) // pseudo-shuffled times
		tm, err := k.At(at, func() { fired++ })
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			timers = append(timers, tm)
		}
	}
	cancelled := 0
	for _, tm := range timers {
		if tm.Stop() {
			cancelled++
		}
	}
	k.RunAll()
	if fired != n-cancelled {
		t.Fatalf("fired %d, want %d", fired, n-cancelled)
	}
}
