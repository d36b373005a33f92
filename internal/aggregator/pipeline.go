package aggregator

import (
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// Clock is the narrow time seam the windowing pipeline runs on: a
// readable current time and one-shot timers. It is all the decision path
// knows about time — the pipeline never touches the simulation kernel
// directly — so the same windowing, arbitration, and feedback code runs
// batch (driven by *sim.Kernel, which satisfies Clock via AfterFunc) and
// online (driven by engine.WallClock against real time).
//
// On the kernel, callbacks whose deadlines coincide fire in the order
// they were scheduled — its (time, seq) total order (docs/DETERMINISM.md,
// invariant 8). A report and a window expiry landing at the same instant
// therefore resolve in schedule order: a report event enqueued before
// the window opened is delivered first and joins the closing window,
// while one enqueued after the expiry was armed arrives second and opens
// the next window. The wall-clock driver promises no callback order; the
// online engine does not rely on one, because its timers are backstops
// that close a window only when it is due, under the tenant's one lock
// (invariant 9). internal/engine's same-instant regression tests pin
// both paths.
//
// This is the consumer-side declaration of the seam; internal/engine
// re-exports the identical interface as engine.Clock next to its clock
// drivers, keeping the dependency arrow pointing downward.
type Clock interface {
	// Now returns the current time in virtual units.
	Now() sim.Time
	// AfterFunc schedules fn to run d units from now. Non-positive d
	// means "at the current instant, after already-scheduled work".
	AfterFunc(d sim.Duration, fn func())
}

// pipeline is the windowing-and-feedback machinery shared by the binary
// and location aggregators: the decision scheme, the Clock that drives
// the T_out window lifecycle, the verdict settlement (trust updates plus
// the overheard decision broadcast), and the lifecycle/accounting state.
// What differs between the two aggregators — how reports accumulate and
// how the two sides of a vote are formed — stays in Binary and Location;
// everything downstream of "we have the two sides" lives here.
type pipeline struct {
	scheme   decision.Scheme
	clock    Clock
	feedback Feedback
	tr       *trace.Trace
	// expire closes the open window. The aggregator binds it once at
	// construction: a method value built per Deliver escapes to the heap
	// and would cost one allocation per report.
	expire func()

	windowOpen    bool
	windowTrigger sim.Time
	decided       int
	closed        bool
}

// Close marks the aggregator dead: its cluster head crashed, so buffered
// reports and any pending window or circle deadline die with it. Close is
// idempotent and irreversible; failover builds a fresh aggregator for the
// new head.
func (p *pipeline) Close() { p.closed = true }

// Closed reports whether Close has been called.
func (p *pipeline) Closed() bool { return p.closed }

// openWindow starts a T_out window at the current time if none is open,
// scheduling p.expire at its deadline.
func (p *pipeline) openWindow(tout sim.Duration) {
	if p.windowOpen {
		return
	}
	p.windowOpen = true
	p.windowTrigger = p.clock.Now()
	p.clock.AfterFunc(tout, p.expire)
}

// judge commits one verdict to the scheme and relays it to the feedback
// sink — the decision broadcast every one-hop member overhears.
//
//hot:path
func (p *pipeline) judge(node int, correct bool) {
	p.scheme.Judge(node, correct)
	if p.feedback != nil {
		p.feedback(node, correct)
	}
}

// settle commits a decision's implied verdicts: reporters were correct iff
// the event occurred, silent event neighbors iff it did not.
//
//hot:path
func (p *pipeline) settle(d core.BinaryDecision) {
	for _, id := range d.Reporters {
		p.judge(id, d.Occurred)
	}
	for _, id := range d.Silent {
		p.judge(id, !d.Occurred)
	}
}

// relay broadcasts a decision's verdicts without judging — for the
// BinaryDecider path, where the decider already applied its own trust
// updates but the broadcast still reaches every member.
func (p *pipeline) relay(d core.BinaryDecision) {
	if p.feedback == nil {
		return
	}
	for _, id := range d.Reporters {
		p.feedback(id, d.Occurred)
	}
	for _, id := range d.Silent {
		p.feedback(id, !d.Occurred)
	}
}
