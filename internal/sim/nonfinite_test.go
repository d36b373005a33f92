package sim

import (
	"errors"
	"math"
	"testing"
)

// TestAtRejectsNonFiniteTimes pins the NaN/Inf guard: NaN compares false
// against everything, so before the guard existed a NaN time passed the
// past-time check and poisoned the queue ordering; +Inf would similarly
// wedge ahead of the End sentinel. Both now fail fast with the wrapped
// sentinel, on the calendar queue and on the heap oracle alike.
func TestAtRejectsNonFiniteTimes(t *testing.T) {
	for _, q := range queues {
		q := q
		t.Run(q.name, func(t *testing.T) {
			k := &Kernel{sched: q.new()}
			for _, at := range []Time{Time(math.NaN()), Time(math.Inf(1)), Time(math.Inf(-1))} {
				tm, err := k.At(at, func() { t.Fatal("non-finite event fired") })
				if !errors.Is(err, ErrNonFiniteTime) {
					t.Fatalf("At(%v) err = %v, want ErrNonFiniteTime", float64(at), err)
				}
				if tm != (Timer{}) {
					t.Fatalf("At(%v) returned a live timer alongside the error", float64(at))
				}
			}
			if k.Pending() != 0 {
				t.Fatalf("rejected schedules left %d events queued", k.Pending())
			}
			// The kernel stays fully usable after a rejected schedule.
			fired := false
			k.After(1, func() { fired = true })
			k.RunAll()
			if !fired {
				t.Fatal("kernel wedged after rejecting a non-finite time")
			}
		})
	}
}

// TestAfterPanicsOnNonFiniteDelay pins After's contract: it has no error
// return, so every non-finite delay must panic carrying the sentinel.
// -Inf is the regression case: it satisfies the d < 0 clamp, so before
// the finiteness check moved ahead of the clamp, After(-Inf) silently
// scheduled at the current instant instead of failing fast.
func TestAfterPanicsOnNonFiniteDelay(t *testing.T) {
	for _, d := range []Duration{Duration(math.NaN()), Duration(math.Inf(1)), Duration(math.Inf(-1))} {
		d := d
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("After(%v) did not panic", float64(d))
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrNonFiniteTime) {
					t.Fatalf("After(%v) panicked with %v, want ErrNonFiniteTime", float64(d), r)
				}
			}()
			k := New()
			k.After(d, func() {})
		}()
	}
}

// TestAtEndSentinelStillSchedulable: End is MaxFloat64, deliberately
// finite, so "schedule at the end of time" keeps working.
func TestAtEndSentinelStillSchedulable(t *testing.T) {
	k := New()
	if _, err := k.At(End, func() {}); err != nil {
		t.Fatalf("At(End) err = %v, want nil", err)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}
