package engine

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/sim"
)

// stubTime is the wall time a stubbed WallClock reads: an offset from
// the clock's start that the test sets, and a count of reads.
type stubTime struct{ ns, reads atomic.Int64 }

// set moves the stub to ms virtual milliseconds after the clock's start.
func (s *stubTime) set(ms float64) { s.ns.Store(int64(ms * float64(time.Millisecond))) }

// stubWallClock builds a WallClock whose time is under test control. Its
// runtime timers are real: each wakes after the wall time remaining
// until its deadline on the stub, and finds the stub wherever the test
// left it. One virtual unit is one millisecond.
func stubWallClock() (*WallClock, *stubTime) {
	w := NewWallClock(time.Millisecond)
	st := &stubTime{}
	w.nowFn = func() time.Time {
		st.reads.Add(1)
		return w.start.Add(time.Duration(st.ns.Load()))
	}
	return w, st
}

// waitRuns polls until runs reaches want or five seconds pass.
func waitRuns(t *testing.T, runs *atomic.Int32, want int32) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); runs.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("callback ran %d times in 5 s, want %d", runs.Load(), want)
		}
	}
}

func TestWallClockNowTracksStub(t *testing.T) {
	w, st := stubWallClock()
	defer w.Close()
	if got := w.Now(); got != 0 {
		t.Fatalf("Now at start = %v, want 0", got)
	}
	st.set(250)
	if got := w.Now(); got != 250 {
		t.Fatalf("Now after 250ms = %v, want 250", got)
	}
}

// TestWallClockEarlyWakeupRearms holds the stub behind a deadline while
// the runtime timer wakes: each wakeup must re-arm instead of running
// the callback early, and the callback must run exactly once after Now
// passes the deadline.
func TestWallClockEarlyWakeupRearms(t *testing.T) {
	w, st := stubWallClock()
	defer w.Close()
	var runs atomic.Int32
	var ranAt atomic.Int64
	w.AfterFunc(5, func() {
		ranAt.Store(int64(w.Now()))
		runs.Add(1)
	})
	armReads := st.reads.Load()
	time.Sleep(30 * time.Millisecond)
	if n := runs.Load(); n != 0 {
		t.Fatalf("callback ran %d times with Now held at 0, before its deadline 5", n)
	}
	// Each wakeup reads the clock once to test dueness and once to
	// re-arm for the remainder.
	if wakes := st.reads.Load() - armReads; wakes < 2 {
		t.Fatalf("the clock was read %d times in 30 ms after arming, want a wakeup that re-armed", wakes)
	}
	st.set(6)
	waitRuns(t, &runs, 1)
	time.Sleep(20 * time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("callback ran %d times, want exactly once", n)
	}
	if at := ranAt.Load(); at < 5 {
		t.Fatalf("callback ran at virtual %d, before its deadline 5", at)
	}
}

// TestWallClockCloseDropsPending pins Close: a callback armed before
// Close is dropped when its timer wakes, and AfterFunc after Close never
// runs its callback.
func TestWallClockCloseDropsPending(t *testing.T) {
	w, st := stubWallClock()
	var runs atomic.Int32
	w.AfterFunc(1, func() { runs.Add(1) })
	w.Close()
	st.set(5)
	w.AfterFunc(0, func() { runs.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d callbacks ran after Close, want 0", n)
	}
}

func TestWallClockNegativeDelayClampsToNow(t *testing.T) {
	w, st := stubWallClock()
	defer w.Close()
	var runs atomic.Int32
	st.set(10)
	w.AfterFunc(-3, func() { runs.Add(1) })
	waitRuns(t, &runs, 1)
}

// TestWallClockRealTimer is the one test that exercises the runtime
// timer against the real clock end to end: a real NewWallClock must
// dispatch a callback close to its deadline.
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
// time.Duration holds (1e13 virtual ms is about 317 years): the runtime
// timer must arm at the maximum delay, not wrap to a negative delay and
// re-arm at zero in a loop that burns a core and never runs the callback.
func TestWallClockFarDeadlineDoesNotSpin(t *testing.T) {
	w := NewWallClock(time.Millisecond)
	defer w.Close()
	var reads atomic.Int64
	w.nowFn = func() time.Time {
		reads.Add(1)
		return time.Now()
	}
	w.AfterFunc(1e13, func() {})
	time.Sleep(20 * time.Millisecond)
	if n := reads.Load(); n > 10 {
		t.Fatalf("clock read %d times in 20 ms: the timer re-arms in a loop", n)
	}
	if delay := w.delay(w.Now().Add(1e13)); delay != math.MaxInt64 {
		t.Fatalf("armed delay = %v, want the maximum Duration", delay)
	}
}
