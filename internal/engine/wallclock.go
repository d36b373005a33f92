package engine

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/tibfit/tibfit/internal/sim"
)

// WallClock drives the decision pipeline against real time. It maps wall
// time onto the pipeline's virtual sim.Time axis — one virtual unit per
// Unit of wall time, counted from the clock's construction — and runs
// each scheduled callback off its own runtime timer.
//
// The clock keeps no queue of its own: the Go runtime's timer heap is
// the online event queue, so callbacks with coinciding deadlines run in
// no promised order, possibly concurrently. An engine.Instance does not
// need one: its timer is only a backstop that takes the instance's lock
// and closes the window if it is due, and every call into the instance
// closes a due window itself (docs/DETERMINISM.md invariants 8 and 9).
type WallClock struct {
	// unit, start and nowFn are fixed before the clock is first used, so
	// Now reads them without a lock.
	unit   time.Duration
	start  time.Time
	nowFn  func() time.Time // stubbed by tests; time.Now in production
	closed atomic.Bool
}

// NewWallClock returns a wall clock mapping one virtual time unit to
// unit of real time (non-positive unit defaults to one second, the
// natural reading of the paper's T_out values as seconds).
func NewWallClock(unit time.Duration) *WallClock {
	if unit <= 0 {
		unit = time.Second
	}
	return &WallClock{unit: unit, start: time.Now(), nowFn: time.Now}
}

// Now returns the current virtual time: wall time since construction,
// in units. It takes no lock: every engine entry point reads it.
//
//hot:path
func (w *WallClock) Now() sim.Time {
	return sim.Time(float64(w.nowFn().Sub(w.start)) / float64(w.unit))
}

// AfterFunc runs fn on a runtime timer goroutine once Now reaches d
// virtual units from now; a non-positive d runs it at the current
// instant. AfterFunc after Close is a no-op.
//
//hot:path
func (w *WallClock) AfterFunc(d sim.Duration, fn func()) {
	if w.closed.Load() {
		return
	}
	w.arm(w.Now().Add(max(d, 0)), fn)
}

// arm starts one runtime timer for the deadline at. A timer that wakes
// before Now reaches at (the wall-to-virtual conversion rounds) re-arms
// for the remainder, so fn never runs early; a timer that wakes after
// Close drops fn.
func (w *WallClock) arm(at sim.Time, fn func()) {
	time.AfterFunc(w.delay(at), func() {
		switch {
		case w.closed.Load():
		case w.Now() < at:
			w.arm(at, fn)
		default:
			fn()
		}
	})
}

// delay returns how long until the virtual deadline at, never negative.
// A deadline past what time.Duration holds (a huge tout on a fine unit)
// saturates at the maximum delay: converting it to a Duration would wrap
// negative and re-arm the timer at zero forever.
func (w *WallClock) delay(at sim.Time) time.Duration {
	offset := float64(at) * float64(w.unit)
	if !(offset < math.MaxInt64) {
		return math.MaxInt64
	}
	return max(w.start.Add(time.Duration(offset)).Sub(w.nowFn()), 0)
}

// Close stops the clock: callbacks armed before Close are dropped when
// their timers wake, and AfterFunc after Close is a no-op. Close is
// idempotent.
func (w *WallClock) Close() { w.closed.Store(true) }
