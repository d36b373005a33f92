package engine

import (
	"sort"
	"sync"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
)

// shard is one event location's single-writer slice of an instance: its
// own decision scheme, its own aggregation window, its own lock. TIBFIT
// windows close per event location (paper §3), and every registered
// scheme keeps per-node state only, so partitioning the member population
// across locations preserves every decision and every trust value bit for
// bit — concurrent ingest at different locations simply never contends.
//
// Lock order: an ingest path takes only shard.mu; a window close takes
// drainMu, then shard.mu, then ringMu (via recordDecision);
// snapshot/restore take stateMu then each shard.mu in index order. No
// path takes two shard locks at once, nothing takes drainMu while
// holding a shard lock, and nothing takes shard.mu while holding
// ringMu, so the hierarchy drainMu → shard.mu → ringMu (and stateMu →
// shard.mu) is cycle-free.
type shard struct {
	mu     sync.Mutex
	scheme decision.Scheme
	agg    *aggregator.Binary
	// members is this location's population, sorted ascending: the
	// globally-sorted member at index k*S+s lives at position k of shard
	// s, which is how TrustTable places rows without re-sorting.
	members []int
	// opened numbers the open window in instance-wide window-open order,
	// the tiebreak between windows whose deadlines coincide.
	opened uint64
	// expire is the backstop timer callback, bound once per shard.
	expire func()
}

// shardClock adapts the tenant's Clock for one shard. Its AfterFunc is
// called exactly when the shard's aggregator opens a window: it records
// the window's open order, lowers the instance's earliest-deadline word,
// and arms the backstop timer. The timer does not run the aggregator's
// own expiry; it runs the instance's drain for this shard, so a close
// driven by the timer and one driven by an entry point take the same
// lock and the same (deadline, open order) sort.
type shardClock struct {
	in *Instance
	sh *shard
}

func (c shardClock) Now() sim.Time { return c.in.clock.Now() }

// AfterFunc runs with the shard's lock held (a window opens inside
// Deliver).
func (c shardClock) AfterFunc(d sim.Duration, _ func()) {
	in, sh := c.in, c.sh
	sh.opened = in.opens.Add(1)
	deadline, _ := sh.agg.Deadline()
	in.lowerEarliest(deadline)
	in.clock.AfterFunc(d, sh.expire)
}

// ShardMembers partitions a member population into n event locations:
// the members are sorted and dealt round-robin, so sorted member i lands
// in shard i%n at position i/n. Round-robin keeps shard populations
// within one of each other for any n, and the inverse index arithmetic
// is what lets snapshot and trust-table walks reassemble global sorted
// order without sorting. n is clamped to [1, len(members)].
func ShardMembers(members []int, n int) [][]int {
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	if n > len(sorted) {
		n = len(sorted)
	}
	if n < 1 {
		n = 1
	}
	out := make([][]int, n)
	quota := (len(sorted) + n - 1) / n
	for s := range out {
		out[s] = make([]int, 0, quota)
	}
	for i, id := range sorted {
		out[i%n] = append(out[i%n], id)
	}
	return out
}
