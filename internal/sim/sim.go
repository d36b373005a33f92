// Package sim implements the discrete-event simulation kernel that replaces
// ns-2 as the substrate for the TIBFIT reproduction.
//
// The kernel is deliberately minimal and deterministic: a virtual clock, an
// event queue with stable FIFO ordering among simultaneous events, and
// cancellable timers. All model randomness lives in the rng
// package; the kernel itself is fully deterministic, so a simulation run is
// a pure function of its configuration and seed.
//
// The event queue is an ns-2-style calendar queue (O(1) amortized per
// operation — see calqueue.go). It honors the exact (time, sequence)
// total order, which the differential tests pin against a binary-heap
// oracle kept in heap_test.go.
//
// The kernel is single-threaded. Wireless sensor network simulations at the
// paper's scale (hundreds of nodes, thousands of events) run in milliseconds
// without concurrency, and a single-threaded kernel makes every run exactly
// reproducible — a property the experiment harness and the regression tests
// rely on.
//
// Event records are recycled through a kernel-local free list (backed by
// block allocation) rather than garbage-collected per event: a campaign
// dispatches millions of timer events, and the steady-state cost of one is
// a queue push/pop, not an allocation. Timer handles are values, so a
// schedule allocates nothing once the free list is warm; generation
// counters keep stale handles safe after their event record is reused.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual simulation time, in abstract time units. The
// paper never ties its timeouts to wall-clock seconds, so the simulator
// keeps the unit abstract too; experiments choose T_out and event spacing
// in the same unit.
type Time float64

// Duration is a span of virtual time in the same abstract unit as Time.
type Duration float64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time with three decimals.
func (t Time) String() string { return fmt.Sprintf("t=%.3f", float64(t)) }

// End is a sentinel time later than any schedulable event.
const End Time = Time(math.MaxFloat64)

// ErrPastTime is returned when an event is scheduled before the current
// virtual time.
var ErrPastTime = errors.New("sim: cannot schedule event in the past")

// ErrNonFiniteTime is returned when an event is scheduled at NaN or ±Inf.
// NaN in particular is poison: it compares false against everything, so it
// slips past range guards and silently corrupts any ordering structure it
// enters. The kernel rejects it at the door instead.
var ErrNonFiniteTime = errors.New("sim: cannot schedule event at non-finite time")

// Handler is a callback invoked when a scheduled event fires.
type Handler func()

// arenaBlock is how many event records each backing allocation holds. One
// block covers the typical standing-timer population of a run; busier runs
// amortize growth over 256 events at a time.
const arenaBlock = 256

// event is a queue entry. seq breaks ties so that events scheduled for the
// same instant fire in scheduling order (FIFO), which keeps runs stable.
// Records are reused via the kernel free list; gen increments on every
// recycle so Timer handles from a previous life cannot touch the new one.
//
// index, vb, prev, and next are scheduler-owned: the calendar queue keeps
// the bucket index in index and threads its per-bucket chains through
// prev/next with the virtual day in vb (the test-only heap oracle keeps
// its slot in index). index >= 0 iff the event is queued.
type event struct {
	at    Time
	seq   uint64
	fn    Handler
	gen   uint64
	index int // scheduler slot; -1 off-queue
	vb    int64
	prev  *event
	next  *event
}

// Timer is a handle to a scheduled event that can be cancelled or queried.
// It is a small value: At and After return it without allocating, and a
// copy behaves exactly like the original. Handles stay valid (and inert)
// after the event fires or is stopped, even though the underlying record
// is recycled for later events: the generation snapshot detects reuse.
// The zero Timer is inert too: it is never pending.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint64
}

// pending reports whether the handle still refers to its original, queued
// event.
func (t Timer) pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Stop cancels the timer, removing its event from the queue immediately,
// so heavy timer churn cannot bloat the queue with dead entries. It
// reports whether the cancellation prevented the event from firing (false
// if it already fired or was already stopped).
func (t Timer) Stop() bool {
	if !t.pending() {
		return false
	}
	ev := t.ev
	t.k.sched.remove(ev)
	t.k.recycle(ev)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool { return t.pending() }

// When returns the virtual time the timer is scheduled to fire, or End once
// it is no longer pending (fired, stopped, or the zero Timer).
func (t Timer) When() Time {
	if !t.pending() {
		return End
	}
	return t.ev.at
}

// Kernel is the discrete-event scheduler. The zero value is ready to use
// (it builds its calendar queue on first schedule); New builds the queue
// up front.
type Kernel struct {
	now     Time
	seq     uint64
	sched   scheduler
	stopped bool
	fired   uint64

	// free holds recycled event records; arena is the tail of the current
	// backing block, consumed one record at a time. Records never move, so
	// pointers into a block stay valid for the kernel's lifetime.
	free  []*event
	arena []event
}

// New returns a kernel with the clock at zero.
func New() *Kernel { return &Kernel{sched: newCalQueue()} }

// initScheduler builds the calendar queue on the first schedule into a
// zero-value Kernel.
//
//hot:init
func (k *Kernel) initScheduler() { k.sched = newCalQueue() }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events still queued. Stopped timers are
// removed from the queue eagerly, so cancelled events never count.
func (k *Kernel) Pending() int {
	if k.sched == nil {
		return 0
	}
	return k.sched.len()
}

// Fired returns the number of events that have been dispatched so far. It
// is useful for instrumentation and for sanity bounds in tests.
func (k *Kernel) Fired() uint64 { return k.fired }

// alloc returns an event record from the free list (or carves one from the
// current arena block), initialized for scheduling at the given time.
//
//hot:path
func (k *Kernel) alloc(at Time, fn Handler) *event {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		if len(k.arena) == 0 {
			k.arena = make([]event, arenaBlock)
		}
		ev = &k.arena[0]
		k.arena = k.arena[1:]
	}
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	return ev
}

// recycle retires a record that left the queue (fired or stopped). Bumping
// gen invalidates every outstanding Timer handle to this life of the
// record; dropping fn releases the captured closure to the GC.
//
//hot:path
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	k.free = append(k.free, ev)
}

// At schedules fn to run at absolute virtual time at. Scheduling at the
// current time is allowed; the event fires after all events already queued
// for that instant. It returns a Timer handle, ErrPastTime if at is before
// the current time, and ErrNonFiniteTime if at is NaN or infinite; a
// rejected schedule returns the zero Timer.
//
//hot:path
func (k *Kernel) At(at Time, fn Handler) (Timer, error) {
	if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
		//lint:allow hotalloc error construction on the rejection path, not per event
		return Timer{}, fmt.Errorf("%w: requested=%v", ErrNonFiniteTime, float64(at))
	}
	if at < k.now {
		//lint:allow hotalloc error construction on the rejection path, not per event
		return Timer{}, fmt.Errorf("%w: now=%v requested=%v", ErrPastTime, k.now, at)
	}
	if k.sched == nil {
		k.initScheduler()
	}
	ev := k.alloc(at, fn)
	k.sched.push(ev)
	return Timer{k: k, ev: ev, gen: ev.gen}, nil
}

// After schedules fn to run d time units from now. A non-positive delay
// schedules for the current instant (after already-queued events). A
// non-finite delay panics with an error wrapping ErrNonFiniteTime: After
// has no error return, and silently dropping or deferring a NaN timer
// would corrupt the run it came from.
//
//hot:path
func (k *Kernel) After(d Duration, fn Handler) Timer {
	// Reject non-finite delays before the negative clamp: -Inf satisfies
	// d < 0, and clamping it to zero would silently schedule a "broken"
	// timer at the current instant instead of failing fast like NaN/+Inf.
	if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
		//lint:allow hotalloc panic construction on the rejection path, not per event
		panic(fmt.Errorf("%w: delay=%v", ErrNonFiniteTime, float64(d)))
	}
	if d < 0 {
		d = 0
	}
	t, err := k.At(k.now.Add(d), fn)
	if err != nil {
		// Unreachable: now+nonnegative-finite is never in the past and
		// never non-finite (now is finite by induction).
		panic(err)
	}
	return t
}

// AfterFunc schedules fn to run d time units from now, like After, but
// discards the Timer handle. Its signature is exactly the Clock seam the
// decision pipeline runs on (internal/aggregator, internal/engine), which
// makes the kernel itself the simulation-backed Clock implementation: the
// batch sim drives the same windowing code the online engine does, with
// zero adaptation layers in between.
//
//hot:path
func (k *Kernel) AfterFunc(d Duration, fn func()) { k.After(d, fn) }

// Stop halts the run loop after the currently dispatching event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Run dispatches events in time order until the queue drains, Stop is
// called, or the next event lies beyond until. The clock is left at the
// time of the last dispatched event (or until, whichever the loop reached).
// It returns the number of events dispatched during this call.
//
//hot:path
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	var dispatched uint64
	if k.sched != nil {
		for !k.stopped {
			next := k.sched.popUntil(until)
			if next == nil {
				break
			}
			k.now = next.at
			fn := next.fn
			// Recycle before dispatch: the record may be reused by events the
			// handler schedules, and the gen bump already shields the handle.
			k.recycle(next)
			fn()
			k.fired++
			dispatched++
		}
	}
	//lint:allow floateq comparison against the exact End sentinel constant
	if k.now < until && until != End {
		k.now = until
	}
	return dispatched
}

// RunAll dispatches every queued event. It is the common top-level call for
// experiments, which bound work by the number of generated events rather
// than by a horizon.
func (k *Kernel) RunAll() uint64 { return k.Run(End) }

// Step dispatches exactly one pending event, if any, and reports whether
// one was dispatched. Tests use it to single-step protocol state machines.
// (Stopped timers leave the queue immediately, so every queued event is
// dispatchable.)
//
//hot:path
func (k *Kernel) Step() bool {
	if k.sched == nil {
		return false
	}
	next := k.sched.popUntil(End)
	if next == nil {
		return false
	}
	k.now = next.at
	fn := next.fn
	k.recycle(next)
	fn()
	k.fired++
	return true
}
