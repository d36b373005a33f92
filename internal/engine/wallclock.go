package engine

import (
	"math"
	"sync"
	"time"

	"github.com/tibfit/tibfit/internal/sim"
)

// WallClock drives the decision pipeline against real time. It maps wall
// time onto the pipeline's virtual sim.Time axis — one virtual unit per
// Unit of wall time, counted from the clock's construction — and runs
// scheduled callbacks off OS one-shot timers.
//
// The kernel's ordering contract (docs/DETERMINISM.md invariant 8) is
// preserved by construction, not by trusting the OS: every AfterFunc
// pushes onto an internal (deadline, seq) min-heap, a single OS timer is
// armed for the earliest deadline only, and a firing drains the heap in
// (deadline, seq) order. Callbacks scheduled for coinciding deadlines
// therefore run in schedule order exactly as they do under *sim.Kernel,
// which is what makes the two drivers decision-equivalent on the same
// report stream (TestEngineMatchesBatchSim).
//
// Callbacks run on the timer goroutine with the heap lock released, so
// they may re-enter AfterFunc/Now freely. For an engine.Instance a timer
// is only a backstop: its callback takes the instance's lock, and every
// call into the instance closes a due window itself.
type WallClock struct {
	// unit, start and nowFn are fixed before the clock is first used, so
	// Now reads them without the lock.
	unit  time.Duration
	start time.Time
	nowFn func() time.Time // stubbed by tests; time.Now in production

	mu     sync.Mutex
	arm    bool        // false in deterministic tests: fire() is driven manually
	events []wallEvent // min-heap ordered by (at, seq)
	seq    uint64
	timer  *time.Timer
	firing bool // a drain is active; at most one goroutine runs fire's loop
	closed bool
}

// wallEvent is one pending callback: its virtual deadline and its
// schedule sequence number, the same (time, seq) key the sim kernel
// totals-orders events by.
type wallEvent struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// NewWallClock returns a wall clock mapping one virtual time unit to
// unit of real time (non-positive unit defaults to one second, the
// natural reading of the paper's T_out values as seconds).
func NewWallClock(unit time.Duration) *WallClock {
	if unit <= 0 {
		unit = time.Second
	}
	return &WallClock{
		unit:  unit,
		start: time.Now(),
		nowFn: time.Now,
		arm:   true,
	}
}

// Now returns the current virtual time: wall time since construction,
// in units. It takes no lock: every engine entry point reads it.
//
//hot:path
func (w *WallClock) Now() sim.Time {
	return sim.Time(float64(w.nowFn().Sub(w.start)) / float64(w.unit))
}

// AfterFunc schedules fn to run d virtual units from now. Non-positive
// delays run at the current instant, after callbacks already scheduled
// for it — the same clamp-and-FIFO rule as sim.Kernel.After.
//
//hot:path
func (w *WallClock) AfterFunc(d sim.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	ev := wallEvent{at: w.Now().Add(d), seq: w.seq, fn: fn}
	w.seq++
	w.events = append(w.events, ev)
	w.siftUp(len(w.events) - 1)
	if w.events[0].seq == ev.seq {
		w.rearmLocked()
	}
	w.mu.Unlock()
}

// Close stops the clock: the OS timer is cancelled and pending callbacks
// are dropped. Close is idempotent; AfterFunc after Close is a no-op.
func (w *WallClock) Close() {
	w.mu.Lock()
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
	}
	w.events = nil
	w.mu.Unlock()
}

// pending returns the number of scheduled, not-yet-fired callbacks.
func (w *WallClock) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.events)
}

// rearmLocked points the single OS timer at the earliest deadline.
// Callers hold w.mu. A spurious wakeup (the timer fires after a nearer
// deadline replaced the one it was armed for) is harmless: fire
// re-checks dueness under the lock and re-arms.
func (w *WallClock) rearmLocked() {
	if !w.arm || w.firing || len(w.events) == 0 {
		// While a drain is active, re-arming would race a second timer
		// goroutine against it; the drain re-checks the heap top before
		// exiting and re-arms then.
		return
	}
	delay := w.delayLocked()
	if w.timer == nil {
		//lint:allow hotalloc binds w.fire once, when the clock's one OS timer is first armed
		w.timer = time.AfterFunc(delay, w.fire)
		return
	}
	w.timer.Stop()
	w.timer.Reset(delay)
}

// delayLocked returns how long until the earliest deadline, never
// negative. A deadline past what time.Duration holds (a huge tout on a
// fine unit) saturates at the maximum delay: converting it to a Duration
// would wrap negative and re-arm the timer at zero forever. Callers hold
// w.mu and have a non-empty heap.
func (w *WallClock) delayLocked() time.Duration {
	offset := float64(w.events[0].at) * float64(w.unit)
	if !(offset < math.MaxInt64) {
		return math.MaxInt64
	}
	return max(w.start.Add(time.Duration(offset)).Sub(w.nowFn()), 0)
}

// fire drains every due callback in (deadline, seq) order, then re-arms
// for the next pending deadline. The lock is dropped around each
// callback (they re-enter AfterFunc to open follow-up windows); dueness
// is re-evaluated from the heap top each iteration, so callbacks a
// firing schedules for the current instant run in this same drain, in
// order.
//
// The firing flag keeps the drain single-threaded: a timer goroutine
// that fires while another drain is mid-callback (a Reset in AfterFunc
// can race an already-fired timer) bails out immediately instead of
// popping events concurrently, which would let coinciding-deadline
// callbacks interleave out of (deadline, seq) order. The active drain
// re-checks the heap before exiting, so no due event is stranded.
func (w *WallClock) fire() {
	w.mu.Lock()
	if w.firing {
		w.mu.Unlock()
		return
	}
	w.firing = true
	for {
		if w.closed || len(w.events) == 0 {
			w.firing = false
			w.mu.Unlock()
			return
		}
		head := w.events[0]
		if head.at > w.Now() {
			w.firing = false
			w.rearmLocked()
			w.mu.Unlock()
			return
		}
		w.popLocked()
		w.mu.Unlock()
		head.fn()
		w.mu.Lock()
	}
}

// evLess orders the heap by (deadline, seq) — the kernel's total order.
// Written without a float equality test: a.at and b.at tie exactly when
// neither is less than the other.
func evLess(a, b wallEvent) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

func (w *WallClock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(w.events[i], w.events[parent]) {
			return
		}
		w.events[i], w.events[parent] = w.events[parent], w.events[i]
		i = parent
	}
}

func (w *WallClock) popLocked() {
	n := len(w.events) - 1
	w.events[0] = w.events[n]
	w.events[n] = wallEvent{}
	w.events = w.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && evLess(w.events[l], w.events[min]) {
			min = l
		}
		if r < n && evLess(w.events[r], w.events[min]) {
			min = r
		}
		if min == i {
			return
		}
		w.events[i], w.events[min] = w.events[min], w.events[i]
		i = min
	}
}
