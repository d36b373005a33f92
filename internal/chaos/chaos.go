// Package chaos is the deterministic fault-injection subsystem: it
// schedules crash-stop faults the paper's evaluation never exercises —
// node crash/recover intervals, cluster-head crashes mid-term, radio
// blackout windows, and packet duplication/delay bursts — so the
// resilience machinery in internal/network (heartbeat failover, ACK +
// backoff reporting, graceful aggregator degradation) can be driven and
// measured.
//
// Every draw comes from named internal/rng splits of one source, and the
// whole fault plan is computed up front in Arm, so a chaos campaign is a
// pure function of its seed exactly like every other component (see
// docs/DETERMINISM.md). With a zero Config the engine schedules nothing
// and perturbs nothing: runs are byte-identical to runs without it.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// Target is the system under chaos. internal/network.Network implements
// it; the indirection keeps this package free of a network dependency so
// tests can drive toy targets.
type Target interface {
	// NodeIDs returns every node's ID, sorted ascending.
	NodeIDs() []int
	// Heads returns the currently serving cluster heads, sorted.
	Heads() []int
	// CrashNode makes the node fail-stop: it stops sensing, transmitting,
	// and (if a head) aggregating. Crashing a crashed node is a no-op.
	CrashNode(id int)
	// RecoverNode brings a crashed node back. Recovering an alive node is
	// a no-op.
	RecoverNode(id int)
}

// Behavior is one adversarial cluster-head behavior — the Byzantine
// counterpart of the fail-stop fault classes. Unlike a crash, a
// compromised head keeps running the protocol; it just runs it wrong.
type Behavior int

// The adversarial behaviors a compromised head exhibits.
const (
	// BehaviorInvert makes the head broadcast the inverse of its honest
	// arbitration — the lying-CH attack §3.4's shadow panel exists for —
	// and settle member trust against the lie.
	BehaviorInvert Behavior = iota + 1
	// BehaviorSuppress makes the head silently drop a deterministic
	// subset (even node IDs) of member reports before aggregation,
	// starving the vote it then decides with a clear conscience.
	BehaviorSuppress
	// BehaviorPoison makes the head upload a tampered trust snapshot at
	// handoff, slandering its members so the next head inherits poisoned
	// state.
	BehaviorPoison
	// BehaviorReplay makes the head re-upload the stale snapshot it was
	// issued at election, erasing every verdict of its term.
	BehaviorReplay
)

// allBehaviors is the default compromise pool when Config.Behaviors is
// empty.
var allBehaviors = []Behavior{BehaviorInvert, BehaviorSuppress, BehaviorPoison, BehaviorReplay}

// String returns the stable lowercase name of the behavior.
func (b Behavior) String() string {
	switch b {
	case BehaviorInvert:
		return "invert"
	case BehaviorSuppress:
		return "suppress"
	case BehaviorPoison:
		return "poison"
	case BehaviorReplay:
		return "replay"
	}
	return fmt.Sprintf("behavior(%d)", int(b))
}

// ByzantineTarget is the optional Target extension for adversarial head
// compromise. Arm requires it when Config.ByzHeads is positive.
type ByzantineTarget interface {
	Target
	// CompromiseHead turns the node into a Byzantine head exhibiting the
	// behavior from the compromise onward (a crash clears it — the
	// adversary loses the mote along with everyone else).
	CompromiseHead(id int, b Behavior)
}

// Config describes one chaos campaign. The zero value injects nothing.
type Config struct {
	// Horizon is the virtual-time span over which fault times are drawn.
	// It must be positive when any fault class is enabled.
	Horizon float64

	// CrashFraction is the fraction of nodes given one crash interval
	// each, starting at a uniform time within the horizon.
	CrashFraction float64

	// MeanDowntime is the mean of the exponentially distributed downtime
	// after each node crash. Zero or negative means crash-stop: the node
	// never recovers (dead battery, hardware failure).
	MeanDowntime float64

	// HeadCrashes is the number of cluster-head crash injections: at each
	// drawn time, one currently serving head (chosen uniformly) crashes —
	// the mid-aggregation-window failure the failover path exists for.
	HeadCrashes int

	// HeadCrashDowntime is the mean downtime after a head crash (same
	// semantics as MeanDowntime).
	HeadCrashDowntime float64

	// Blackouts is the number of radio blackout windows: spans during
	// which every transmission on the perturbed channel is swallowed.
	Blackouts int

	// BlackoutLen is the duration of each blackout window.
	BlackoutLen float64

	// DupProb is the per-packet duplication probability outside
	// blackouts.
	DupProb float64

	// DelayJitter is the maximum uniform extra per-packet delay — a
	// congestion model coarse enough to reorder packets without starving
	// them.
	DelayJitter float64

	// ByzHeads is the number of Byzantine head compromises: at each
	// drawn time, one currently serving head (chosen uniformly at fire
	// time) turns adversarial. Requires the target to implement
	// ByzantineTarget.
	ByzHeads int

	// Behaviors is the pool compromises draw from; empty means all
	// registered behaviors.
	Behaviors []Behavior
}

// Enabled reports whether any fault class is configured.
func (c Config) Enabled() bool {
	return c.CrashFraction > 0 || c.HeadCrashes > 0 || c.Blackouts > 0 ||
		c.DupProb > 0 || c.DelayJitter > 0 || c.ByzHeads > 0
}

// Validate reports whether the configuration is usable. NaN and ±Inf
// are rejected explicitly: a NaN fraction slips through plain range
// comparisons (NaN < 0 and NaN > 1 are both false) and would otherwise
// poison every draw made from it.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Horizon", c.Horizon},
		{"CrashFraction", c.CrashFraction},
		{"MeanDowntime", c.MeanDowntime},
		{"HeadCrashDowntime", c.HeadCrashDowntime},
		{"BlackoutLen", c.BlackoutLen},
		{"DupProb", c.DupProb},
		{"DelayJitter", c.DelayJitter},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("chaos: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.CrashFraction < 0 || c.CrashFraction > 1:
		return fmt.Errorf("chaos: CrashFraction must be in [0,1], got %v", c.CrashFraction)
	case c.DupProb < 0 || c.DupProb > 1:
		return fmt.Errorf("chaos: DupProb must be in [0,1], got %v", c.DupProb)
	case c.HeadCrashes < 0 || c.Blackouts < 0:
		return fmt.Errorf("chaos: HeadCrashes and Blackouts must be non-negative")
	case c.ByzHeads < 0:
		return fmt.Errorf("chaos: ByzHeads must be non-negative, got %d", c.ByzHeads)
	case c.Blackouts > 0 && c.BlackoutLen <= 0:
		return fmt.Errorf("chaos: Blackouts need a positive BlackoutLen")
	case c.DelayJitter < 0:
		return fmt.Errorf("chaos: DelayJitter must be non-negative")
	case c.Enabled() && c.Horizon <= 0:
		return fmt.Errorf("chaos: enabled fault classes need a positive Horizon")
	}
	for _, b := range c.Behaviors {
		if b < BehaviorInvert || b > BehaviorReplay {
			return fmt.Errorf("chaos: unknown behavior %d in Behaviors", int(b))
		}
	}
	return nil
}

// DefaultConfig returns a modest campaign: a fifth of the nodes crash
// and recover, one head crash, one short blackout, light duplication.
// The horizon must still be set by the caller to the run length.
func DefaultConfig(horizon float64) Config {
	return Config{
		Horizon:           horizon,
		CrashFraction:     0.2,
		MeanDowntime:      horizon / 10,
		HeadCrashes:       1,
		HeadCrashDowntime: horizon / 10,
		Blackouts:         1,
		BlackoutLen:       horizon / 50,
		DupProb:           0.02,
		DelayJitter:       0.002,
	}
}

// Fault is one entry of the precomputed fault plan, exposed for tests
// and for the CLI's plan dump.
type Fault struct {
	// At is the injection time.
	At sim.Time
	// Kind is "crash", "recover", "head-crash", "byz-head",
	// "blackout-start", or "blackout-end". Byzantine entries suffix the
	// drawn behavior, e.g. "byz-head/invert".
	Kind string
	// Node is the victim node, or -1 when resolved at fire time (head
	// crashes) or not applicable (blackouts).
	Node int
}

// window is one blackout span [start, end).
type window struct{ start, end float64 }

// Stats counts injected faults.
type Stats struct {
	Crashes     int // node crashes injected (including head crashes)
	Recoveries  int // recoveries injected
	HeadCrashes int // head crashes resolved against a serving head
	Blackouts   int // blackout windows entered
	Byzantine   int // head compromises resolved against a serving head
}

// Engine schedules the faults of one campaign on a kernel and perturbs
// a radio channel. It implements radio.Perturber.
type Engine struct {
	cfg    Config
	kernel *sim.Kernel
	tr     *trace.Trace

	headSrc *rng.Source // fire-time head picks
	pktSrc  *rng.Source // per-packet duplication and jitter draws
	byzSrc  *rng.Source // fire-time Byzantine victim picks (nil unless armed)

	plan      []Fault
	blackouts []window
	stats     Stats
}

// New returns an engine for one campaign. The source must be a named
// split of the campaign seed; the engine derives its own child streams
// so packet perturbation and schedule drawing cannot perturb each other.
func New(cfg Config, kernel *sim.Kernel, src *rng.Source, tr *trace.Trace) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if kernel == nil || src == nil {
		return nil, fmt.Errorf("chaos: kernel and rng are required")
	}
	return &Engine{
		cfg:     cfg,
		kernel:  kernel,
		tr:      tr,
		headSrc: src.Split("head-pick"),
		pktSrc:  src.Split("packets"),
	}, nil
}

// Plan returns the precomputed fault plan in schedule order (valid after
// Arm).
func (e *Engine) Plan() []Fault {
	out := make([]Fault, len(e.plan))
	copy(out, e.plan)
	return out
}

// Stats returns cumulative injection counters.
func (e *Engine) Stats() Stats { return e.stats }

// Arm draws the whole fault plan from the schedule stream and registers
// it on the kernel against the target. It draws nothing at fire time
// except the head-crash victim pick (which must see the then-current
// head set). Call it once, before running the kernel; the src passed to
// New is not consumed after Arm returns.
func (e *Engine) Arm(target Target, src *rng.Source) error {
	if target == nil {
		return fmt.Errorf("chaos: nil target")
	}
	sched := src.Split("schedule")

	// Node crash/recover intervals.
	ids := target.NodeIDs()
	nVictims := int(e.cfg.CrashFraction*float64(len(ids)) + 0.5)
	if nVictims > len(ids) {
		nVictims = len(ids)
	}
	if nVictims > 0 {
		perm := sched.Perm(len(ids))
		for i := 0; i < nVictims; i++ {
			id := ids[perm[i]]
			at := sim.Time(sched.Uniform(0, e.cfg.Horizon))
			e.addFault(Fault{At: at, Kind: "crash", Node: id}, func() {
				e.stats.Crashes++
				target.CrashNode(id)
			})
			if e.cfg.MeanDowntime > 0 {
				down := e.cfg.MeanDowntime * sched.ExpFloat64()
				e.addFault(Fault{At: at.Add(sim.Duration(down)), Kind: "recover", Node: id}, func() {
					e.stats.Recoveries++
					target.RecoverNode(id)
				})
			}
		}
	}

	// Cluster-head crashes: victim resolved at fire time so the pick
	// lands on whoever is actually serving.
	for i := 0; i < e.cfg.HeadCrashes; i++ {
		at := sim.Time(sched.Uniform(0, e.cfg.Horizon))
		var down float64
		if e.cfg.HeadCrashDowntime > 0 {
			down = e.cfg.HeadCrashDowntime * sched.ExpFloat64()
		}
		e.addFault(Fault{At: at, Kind: "head-crash", Node: -1}, func() {
			heads := target.Heads()
			if len(heads) == 0 {
				return
			}
			id := heads[e.headSrc.Intn(len(heads))]
			e.stats.Crashes++
			e.stats.HeadCrashes++
			target.CrashNode(id)
			if down > 0 {
				e.kernel.After(sim.Duration(down), func() {
					e.stats.Recoveries++
					target.RecoverNode(id)
				})
			}
		})
	}

	// Radio blackout windows.
	for i := 0; i < e.cfg.Blackouts; i++ {
		start := sched.Uniform(0, e.cfg.Horizon)
		w := window{start: start, end: start + e.cfg.BlackoutLen}
		e.blackouts = append(e.blackouts, w)
		e.addFault(Fault{At: sim.Time(w.start), Kind: "blackout-start", Node: -1}, func() {
			e.stats.Blackouts++
			e.tr.Emit(float64(e.kernel.Now()), trace.KindBlackout, -1,
				"radio blackout for %v", sim.Duration(e.cfg.BlackoutLen))
		})
		e.addFault(Fault{At: sim.Time(w.end), Kind: "blackout-end", Node: -1}, func() {
			e.tr.Emit(float64(e.kernel.Now()), trace.KindBlackout, -1, "radio restored")
		})
	}

	// Byzantine head compromises: behavior drawn now, victim resolved at
	// fire time against the then-serving head set (like head crashes).
	// Both the "byz-pick" split and every byz draw happen only when
	// ByzHeads is configured, and strictly after all legacy draw
	// classes, so adding compromises to an existing campaign leaves its
	// crash/blackout schedule byte-identical.
	if e.cfg.ByzHeads > 0 {
		bt, ok := target.(ByzantineTarget)
		if !ok {
			return fmt.Errorf("chaos: ByzHeads configured but target %T does not implement ByzantineTarget", target)
		}
		e.byzSrc = src.Split("byz-pick")
		pool := e.cfg.Behaviors
		if len(pool) == 0 {
			pool = allBehaviors
		}
		for i := 0; i < e.cfg.ByzHeads; i++ {
			at := sim.Time(sched.Uniform(0, e.cfg.Horizon))
			b := pool[sched.Intn(len(pool))]
			e.addFault(Fault{At: at, Kind: "byz-head/" + b.String(), Node: -1}, func() {
				heads := bt.Heads()
				if len(heads) == 0 {
					return
				}
				id := heads[e.byzSrc.Intn(len(heads))]
				e.stats.Byzantine++
				bt.CompromiseHead(id, b)
			})
		}
	}
	sort.Slice(e.blackouts, func(i, j int) bool { return e.blackouts[i].start < e.blackouts[j].start })
	sort.SliceStable(e.plan, func(i, j int) bool { return e.plan[i].At < e.plan[j].At })
	return nil
}

// addFault records the plan entry and schedules its action. (Crash and
// recovery trace records are the target's job — it knows the node's
// role; the engine traces only blackouts.)
func (e *Engine) addFault(f Fault, fire func()) {
	e.plan = append(e.plan, f)
	at := f.At
	if at < e.kernel.Now() {
		at = e.kernel.Now()
	}
	// Scheduling at or after now never fails.
	if _, err := e.kernel.At(at, fire); err != nil {
		panic(err)
	}
}

// Perturb implements radio.Perturber: swallow packets inside blackout
// windows, otherwise duplicate and jitter per config. Draws come from
// the engine's dedicated packet stream.
func (e *Engine) Perturb(from, to geo.Point) radio.Perturbation {
	var p radio.Perturbation
	now := float64(e.kernel.Now())
	for _, w := range e.blackouts {
		if now >= w.start && now < w.end {
			p.Drop = true
			return p
		}
		if w.start > now {
			break
		}
	}
	if e.cfg.DupProb > 0 && e.pktSrc.Bernoulli(e.cfg.DupProb) {
		p.Duplicate = true
	}
	if e.cfg.DelayJitter > 0 {
		p.ExtraDelay = sim.Duration(e.pktSrc.Uniform(0, e.cfg.DelayJitter))
	}
	return p
}
