package sim

// scheduler is the event-queue abstraction behind the kernel. The kernel
// owns event allocation, recycling, and the virtual clock; a scheduler
// only orders queued events by the (at, seq) total order.
//
// The calendar queue (calqueue.go) is the kernel's only production
// implementation. The interface stays so the differential tests can put
// the binary heap (heap_test.go), their reference oracle, in its place:
// two events compare by time first and by scheduling sequence number on
// ties, and dispatch order is part of the contract, not an implementation
// detail (see docs/DETERMINISM.md).
//
// Implementations mark queued events with ev.index >= 0 (the meaning of
// the index is implementation-private) and must reset it to -1 when the
// event leaves the queue, which is how Timer handles detect liveness.
type scheduler interface {
	// push enqueues an event. The kernel guarantees ev.at is finite and
	// not before the time of the last popped event.
	push(ev *event)
	// popUntil removes and returns the earliest queued event by
	// (at, seq) if its time is <= horizon. It returns nil — and leaves
	// the queue untouched — when the queue is empty or the earliest
	// event lies beyond the horizon.
	popUntil(horizon Time) *event
	// remove unlinks a queued event by handle (the kernel only calls it
	// with ev.index >= 0).
	remove(ev *event)
	// len reports how many events are queued.
	len() int
}
