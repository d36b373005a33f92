// Package radio models the wireless channel between sensor nodes and their
// cluster head.
//
// The paper's evaluation runs over the ns-2 802.11 wireless model and notes
// only one channel artefact that matters to the protocol: "correct nodes'
// packets are naturally dropped less than 1% of the time" (Table 2
// discussion). This package reproduces that behaviour with an explicit,
// tunable model: a disk connectivity range, a per-packet drop probability,
// a log-distance received-signal-strength estimate (used by LEACH
// affiliation), and a distance-proportional propagation delay. Substituting
// this for ns-2 preserves everything TIBFIT's logic can observe.
package radio

import (
	"math"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

// Config describes the channel.
type Config struct {
	// Range is the maximum one-hop communication distance. Transmissions
	// to receivers beyond Range are never delivered. Zero means unlimited
	// range (the paper's clusters are one-hop by construction).
	Range float64

	// DropProb is the probability an otherwise-deliverable packet is lost.
	// Table 2's "< 1%" natural loss corresponds to values like 0.005-0.01.
	DropProb float64

	// BaseDelay is the fixed per-packet latency (MAC + processing).
	BaseDelay sim.Duration

	// DelayPerUnit is the additional latency per unit of distance. Keeping
	// it small but non-zero preserves ns-2's property that reports from
	// different distances arrive at distinct times.
	DelayPerUnit sim.Duration

	// TxPower is the transmit power in dBm used for the RSS estimate.
	TxPower float64

	// PathLossExp is the log-distance path-loss exponent (typically 2-4).
	PathLossExp float64
}

// DefaultConfig returns the channel used by the reproduction experiments:
// one-hop clusters, 0.5% natural loss, small distance-dependent delays.
func DefaultConfig() Config {
	return Config{
		Range:        0, // one-hop by construction
		DropProb:     0.005,
		BaseDelay:    0.001,
		DelayPerUnit: 0.0001,
		TxPower:      0,
		PathLossExp:  2.7,
	}
}

// Outcome describes what happened to one transmission.
type Outcome int

// Transmission outcomes.
const (
	// Delivered means the packet reached the receiver.
	Delivered Outcome = iota + 1
	// DroppedLoss means the packet was lost to channel noise.
	DroppedLoss
	// DroppedRange means the receiver was outside communication range.
	DroppedRange
	// DroppedOutage means an injected channel fault (a blackout or
	// partition window from a Perturber) swallowed the packet.
	DroppedOutage
)

// String returns a stable lowercase name for the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case DroppedLoss:
		return "dropped-loss"
	case DroppedRange:
		return "dropped-range"
	case DroppedOutage:
		return "dropped-outage"
	default:
		return "unknown"
	}
}

// Perturbation describes what an injected fault does to one otherwise
// in-range transmission. The zero value leaves the packet alone.
type Perturbation struct {
	// Drop swallows the packet (blackout / partition window).
	Drop bool
	// Duplicate delivers a second copy of the packet shortly after the
	// first — the classic at-least-once channel artefact receivers must
	// absorb.
	Duplicate bool
	// ExtraDelay is added to the propagation delay (congestion burst).
	ExtraDelay sim.Duration
}

// Perturber is consulted once per transmission by a channel it is
// installed on; the chaos engine implements it. Implementations must be
// deterministic functions of their own seeded streams and the virtual
// clock so that runs stay reproducible.
type Perturber interface {
	Perturb(from, to geo.Point) Perturbation
}

// linkKey identifies a directed position pair for the link-cost cache.
type linkKey struct {
	from, to geo.Point
}

// linkCost caches the pure geometry-derived quantities for one link. Nodes
// are static for the lifetime of a round, so the same member→CH pair is
// priced thousands of times per campaign; caching turns the repeated
// hypot/multiply (and, for affiliation, log10) into a table hit. rss is
// filled lazily — most links are only ever sent over, never RSS-ranked.
type linkCost struct {
	dist   float64
	delay  sim.Duration
	hasRSS bool
	rss    float64
}

// linkEntry is one slot of the direct-mapped link cache. A plain Go map
// would work but its generic memhash of the 32-byte key costs more than
// the float math it saves; a direct-mapped table with a four-word FNV mix
// keeps a hit cheaper than one math.Hypot.
type linkEntry struct {
	used bool
	key  linkKey
	cost linkCost
}

// linkCacheMin and linkCacheSize bound the cache's slot count (powers of
// two for mask indexing). A channel starts small and doubles while its
// misses stay high, so a campaign pays for the pairs it prices: a
// location grid sends a hundred members to one head, and a 100k-node
// field's affiliation churns through far more pairs than the largest
// table holds. Colliding pairs just alternate recomputing.
const (
	linkCacheMin  = 64
	linkCacheSize = 4096
)

// linkHash mixes the four coordinate words FNV-style, then folds the
// high bits down with the murmur3 finalizer, into a slot index. The fold
// matters: a multiply carries only upward, and whole-number coordinates
// such as a grid's leave the low 44 bits of every word zero, so without
// it every pair of a 10×10 grid lands in one slot.
func linkHash(a, b geo.Point) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ math.Float64bits(a.X)) * prime
	h = (h ^ math.Float64bits(a.Y)) * prime
	h = (h ^ math.Float64bits(b.X)) * prime
	h = (h ^ math.Float64bits(b.Y)) * prime
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ (h >> 33)
}

// Channel is a stochastic wireless channel bound to a simulation kernel.
type Channel struct {
	cfg       Config
	kernel    *sim.Kernel
	src       *rng.Source
	perturber Perturber
	links     []linkEntry
	// probes and misses count cache lookups in the current window, which
	// closes on the first miss after 2·len(links) probes.
	probes, misses int

	sent       int
	delivered  int
	lost       int
	outOfRange int
	outage     int
	duplicated int
}

// NewChannel returns a channel using the given kernel and random stream.
func NewChannel(cfg Config, kernel *sim.Kernel, src *rng.Source) *Channel {
	return &Channel{cfg: cfg, kernel: kernel, src: src}
}

// link returns the cached geometry costs for the pair, computing and
// memoizing them on first use. The returned pointer stays valid until the
// slot is evicted by a colliding pair or the cache grows, so callers use
// it immediately. Lookup is a deterministic pure function of the
// coordinates — no map iteration, no randomized hashing — so it cannot
// perturb run order, and neither can the cache's size.
//
//hot:path
func (c *Channel) link(a, b geo.Point) *linkCost {
	if c.links == nil {
		c.links = make([]linkEntry, linkCacheMin)
	}
	h := linkHash(a, b)
	e := &c.links[h&uint64(len(c.links)-1)]
	c.probes++
	if e.used && e.key.from == a && e.key.to == b {
		return &e.cost
	}
	c.misses++
	if c.probes >= 2*len(c.links) {
		// More than a quarter of the window missed: the live pairs
		// outnumber the slots, so double the table.
		if 4*c.misses > c.probes && len(c.links) < linkCacheSize {
			c.grow()
			e = &c.links[h&uint64(len(c.links)-1)]
		}
		c.probes, c.misses = 0, 0
	}
	d := a.Dist(b)
	e.used = true
	e.key = linkKey{from: a, to: b}
	e.cost = linkCost{
		dist:  d,
		delay: c.cfg.BaseDelay + sim.Duration(d)*c.cfg.DelayPerUnit,
	}
	return &e.cost
}

// grow doubles the cache, keeping every entry: an entry in slot i moves
// to slot i or i+len, so no two entries collide on the way.
func (c *Channel) grow() {
	old := c.links
	c.links = make([]linkEntry, 2*len(old))
	mask := uint64(len(c.links) - 1)
	for _, e := range old {
		if e.used {
			c.links[linkHash(e.key.from, e.key.to)&mask] = e
		}
	}
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// SetPerturber installs a fault injector consulted on every send. A nil
// perturber (the default) leaves the channel byte-identical to a channel
// without the hook: no extra random draws, no behaviour change.
func (c *Channel) SetPerturber(p Perturber) { c.perturber = p }

// InRange reports whether two positions can communicate directly.
func (c *Channel) InRange(a, b geo.Point) bool {
	return c.cfg.Range <= 0 || c.link(a, b).dist <= c.cfg.Range
}

// Delay returns the propagation delay between two positions.
func (c *Channel) Delay(a, b geo.Point) sim.Duration {
	return c.link(a, b).delay
}

// RSS returns the received signal strength in dBm at distance d using the
// log-distance path-loss model. Nodes affiliate with the CH whose
// advertisement has the strongest RSS (paper §2). Distances below one unit
// clamp to one to keep the logarithm bounded.
func (c *Channel) RSS(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return c.cfg.TxPower - 10*c.cfg.PathLossExp*math.Log10(d)
}

// LinkRSS returns the received signal strength at b for a transmission
// from a — RSS(a.Dist(b)) with the distance and logarithm memoized.
// LEACH affiliation ranks every member against every advertising CH each
// round, so this is the hot path for the log10.
//
//hot:path
func (c *Channel) LinkRSS(a, b geo.Point) float64 {
	lc := c.link(a, b)
	if !lc.hasRSS {
		lc.rss = c.RSS(lc.dist)
		lc.hasRSS = true
	}
	return lc.rss
}

// Send transmits a packet from src to dst positions and schedules deliver
// at the receive time if the packet survives. It returns the outcome
// immediately (the simulator is omniscient; the model is not).
//
//hot:path
func (c *Channel) Send(from, to geo.Point, deliver sim.Handler) Outcome {
	c.sent++
	// One cache probe prices the whole transmission: the range check and
	// the delay share the same memoized distance.
	lc := c.link(from, to)
	if c.cfg.Range > 0 && lc.dist > c.cfg.Range {
		c.outOfRange++
		return DroppedRange
	}
	var pert Perturbation
	if c.perturber != nil {
		pert = c.perturber.Perturb(from, to)
	}
	if pert.Drop {
		c.outage++
		return DroppedOutage
	}
	if c.src.Bernoulli(c.cfg.DropProb) {
		c.lost++
		return DroppedLoss
	}
	c.delivered++
	d := lc.delay + pert.ExtraDelay
	c.kernel.After(d, deliver)
	if pert.Duplicate {
		c.duplicated++
		// The copy trails the original by one base delay; receivers
		// (aggregators, relays) are idempotent and absorb it.
		c.kernel.After(d+c.cfg.BaseDelay, deliver)
	}
	return Delivered
}

// Stats reports cumulative channel counters.
func (c *Channel) Stats() (sent, delivered, lost, outOfRange int) {
	return c.sent, c.delivered, c.lost, c.outOfRange
}

// ChaosStats reports cumulative injected-fault counters: packets
// swallowed by outage windows and packets duplicated.
func (c *Channel) ChaosStats() (outage, duplicated int) {
	return c.outage, c.duplicated
}

// LossRate returns the observed fraction of sent packets lost to noise.
func (c *Channel) LossRate() float64 {
	if c.sent == 0 {
		return 0
	}
	return float64(c.lost) / float64(c.sent)
}
