// Package engine is the online decision engine: the trust-indexed
// windowing pipeline of internal/aggregator lifted off the batch
// simulation kernel and behind a narrow Clock seam, so the same
// arbitration, feedback, and snapshot machinery that reproduces the
// paper's figures also serves live traffic (cmd/tibfit-serve).
//
// The package has three pieces:
//
//   - Clock, the timer seam the pipeline is driven through. The
//     simulation kernel is one implementation (*sim.Kernel satisfies
//     Clock directly via Kernel.AfterFunc), which is how the batch path
//     stays byte-identical: it runs the exact code it always ran.
//   - WallClock, the real-time driver: it maps wall time onto the
//     virtual axis and runs each callback off one Go runtime timer, so
//     the runtime's timer heap is the online event queue. It keeps no
//     queue of its own and promises no order among coinciding
//     deadlines; a server runs all its tenants on one WallClock.
//   - Instance, one tenant's trust namespace: a decision scheme from the
//     registry, a binary aggregation pipeline on a Clock, the
//     base-station trust ledger (leach.Station) as the durable home of
//     per-node state, and sealed snapshot/restore built on
//     core.SealSnapshot/OpenSnapshot — the §2 CH-handoff machinery
//     reused as the service's persistence format.
//
// See docs/SERVING.md for the service built on top.
package engine

import (
	"github.com/tibfit/tibfit/internal/aggregator"
)

// Clock is the timer seam the decision pipeline runs on. It is the same
// interface the aggregator package declares for itself (the consumer-side
// declaration that keeps the dependency arrow pointing downward); the
// alias makes engine.Clock and aggregator.Clock interchangeable by
// construction, not just structurally.
//
// *sim.Kernel (virtual time) and *WallClock (real time) are the two
// drivers. Only the kernel orders callbacks with coinciding deadlines
// (docs/DETERMINISM.md invariant 8); an Instance needs no order, because
// its timer is a backstop that closes the window only if it is due.
type Clock = aggregator.Clock
