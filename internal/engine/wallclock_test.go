package engine

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/sim"
)

// stubClock builds a WallClock whose time is under test control: the OS
// timer is never armed (fire is driven manually) and nowFn reads the
// returned setter's value. One virtual unit is one millisecond.
func stubClock() (*WallClock, func(ms float64)) {
	w := NewWallClock(time.Millisecond)
	start := w.start
	cur := start
	w.mu.Lock()
	w.arm = false
	w.nowFn = func() time.Time { return cur }
	w.mu.Unlock()
	return w, func(ms float64) { cur = start.Add(time.Duration(ms * float64(time.Millisecond))) }
}

func TestWallClockNowTracksStub(t *testing.T) {
	w, advance := stubClock()
	defer w.Close()
	if got := w.Now(); got != 0 {
		t.Fatalf("Now at start = %v, want 0", got)
	}
	advance(250)
	if got := w.Now(); got != 250 {
		t.Fatalf("Now after 250ms = %v, want 250", got)
	}
}

func TestWallClockFiresInDeadlineOrder(t *testing.T) {
	w, advance := stubClock()
	defer w.Close()
	var order []string
	w.AfterFunc(5, func() { order = append(order, "A5") })
	w.AfterFunc(5, func() { order = append(order, "B5") })
	w.AfterFunc(3, func() { order = append(order, "C3") })
	advance(6)
	w.fire()
	want := []string{"C3", "A5", "B5"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v (invariant 8: coinciding deadlines in schedule order)", order, want)
		}
	}
}

func TestWallClockSameInstantReentrantSchedule(t *testing.T) {
	// A callback that schedules more work for the current instant runs
	// it in the same drain, after everything already scheduled for that
	// instant — the kernel's clamp-and-FIFO rule.
	w, advance := stubClock()
	defer w.Close()
	var order []string
	w.AfterFunc(5, func() {
		order = append(order, "A")
		w.AfterFunc(0, func() { order = append(order, "D") })
	})
	w.AfterFunc(5, func() { order = append(order, "B") })
	advance(5)
	w.fire()
	want := "A,B,D"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("drain order %s, want %s", got, want)
	}
}

func TestWallClockFutureEventsStayPending(t *testing.T) {
	w, advance := stubClock()
	defer w.Close()
	fired := 0
	w.AfterFunc(10, func() { fired++ })
	advance(9)
	w.fire()
	if fired != 0 || w.pending() != 1 {
		t.Fatalf("fired=%d pending=%d before deadline, want 0/1", fired, w.pending())
	}
	advance(10)
	w.fire()
	if fired != 1 || w.pending() != 0 {
		t.Fatalf("fired=%d pending=%d at deadline, want 1/0", fired, w.pending())
	}
}

func TestWallClockCloseDropsPending(t *testing.T) {
	w, advance := stubClock()
	fired := false
	w.AfterFunc(1, func() { fired = true })
	w.Close()
	advance(5)
	w.fire()
	if fired {
		t.Fatal("callback fired after Close")
	}
	w.AfterFunc(0, func() { fired = true })
	w.fire()
	if fired || w.pending() != 0 {
		t.Fatal("AfterFunc after Close scheduled work")
	}
}

func TestWallClockNegativeDelayClampsToNow(t *testing.T) {
	w, advance := stubClock()
	defer w.Close()
	fired := false
	advance(10)
	w.AfterFunc(-3, func() { fired = true })
	w.fire()
	if !fired {
		t.Fatal("negative-delay callback did not fire at the current instant")
	}
}

// TestWallClockSingleDrain pins the firing guard: a second fire racing
// an active drain (an armed timer firing while a Reset with a nearer
// deadline spawns another timer goroutine) must bail out instead of
// popping events concurrently, so coinciding-deadline callbacks never
// interleave out of (deadline, seq) order — invariant 8.
func TestWallClockSingleDrain(t *testing.T) {
	w, advance := stubClock()
	defer w.Close()
	var order []string
	w.AfterFunc(5, func() {
		order = append(order, "A")
		// Simulate a raced timer goroutine firing mid-drain, outside
		// the heap lock: it must not pop B out from under this drain.
		w.fire()
		order = append(order, "A-done")
	})
	w.AfterFunc(5, func() { order = append(order, "B") })
	advance(5)
	w.fire()
	want := "A,A-done,B"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("drain order %s, want %s (nested fire must not drain concurrently)", got, want)
	}
	if w.pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", w.pending())
	}
}

// TestWallClockRealTimer is the one test that exercises the armed OS
// timer end to end: a real NewWallClock must dispatch a callback close
// to its deadline without manual fire calls.
func TestWallClockRealTimer(t *testing.T) {
	w := NewWallClock(time.Millisecond)
	defer w.Close()
	done := make(chan sim.Time, 1)
	w.AfterFunc(5, func() { done <- w.Now() })
	select {
	case at := <-done:
		if at < 5 {
			t.Fatalf("fired at %v, want >= 5 virtual ms", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestWallClockFarDeadlineDoesNotSpin schedules a deadline past what
// time.Duration holds (1e13 virtual ms is about 317 years): the OS timer
// must arm at the maximum delay, not wrap to a negative delay and re-arm
// at zero in a loop that burns a core and never runs the callback.
func TestWallClockFarDeadlineDoesNotSpin(t *testing.T) {
	w := NewWallClock(time.Millisecond)
	defer w.Close()
	var reads atomic.Int64
	w.mu.Lock()
	w.nowFn = func() time.Time {
		reads.Add(1)
		return time.Now()
	}
	w.mu.Unlock()
	w.AfterFunc(1e13, func() {})
	time.Sleep(20 * time.Millisecond)
	if n := reads.Load(); n > 10 {
		t.Fatalf("clock read %d times in 20 ms: the timer re-arms in a loop", n)
	}
	w.mu.Lock()
	delay := w.delayLocked()
	w.mu.Unlock()
	if delay != math.MaxInt64 {
		t.Fatalf("armed delay = %v, want the maximum Duration", delay)
	}
}
