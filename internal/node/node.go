// Package node implements the sensor-node behaviour models of the paper's
// failure taxonomy (§2.1):
//
//   - Correct nodes err only at their natural error rate (missed reports in
//     binary mode, Gaussian location noise in location mode).
//   - Level 0 ("naïve") faulty nodes err randomly with no strategy: missed
//     alarms, false alarms, and inflated location noise.
//   - Level 1 ("smart independent") nodes lie like level 0, but each tracks
//     an estimate of its own trust index and stops lying whenever the
//     estimate falls to lowerTI, behaving correctly until it recovers past
//     upperTI — trying to stay useful to the adversary without being
//     isolated.
//   - Level 2 ("smart colluding") nodes additionally coordinate: for each
//     event the coalition either has every lying member report one common
//     fabricated location or has them all stay silent.
//
// Compromise is dynamic: a correct node can be converted to any faulty kind
// mid-run (experiment 3's decaying network).
package node

import (
	"fmt"
	"math"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
)

// Kind identifies a behaviour model.
type Kind int

// Behaviour kinds, in increasing order of adversarial sophistication.
const (
	Correct Kind = iota + 1
	Level0
	Level1
	Level2
	// Level3 extends level 2 per §7's "more types of intelligent models
	// involving different levels of collusion": the coalition still
	// fabricates one common location, but each member transmits it with
	// small independent jitter — enough to defeat coincidence detection,
	// small enough that the fabricated reports still cluster together.
	Level3
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case Correct:
		return "correct"
	case Level0:
		return "level0"
	case Level1:
		return "level1"
	case Level2:
		return "level2"
	case Level3:
		return "level3"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Faulty reports whether the kind is one of the faulty models.
func (k Kind) Faulty() bool {
	return k == Level0 || k == Level1 || k == Level2 || k == Level3
}

// Smart reports whether the kind tracks its own trust estimate.
func (k Kind) Smart() bool { return k == Level1 || k == Level2 || k == Level3 }

// Colluding reports whether the kind coordinates through a coalition.
func (k Kind) Colluding() bool { return k == Level2 || k == Level3 }

// Config holds the behavioural parameters shared by a population of nodes.
// Experiments fill it from Table 1 or Table 2. Every node of a population
// points at one Config: it is shared, and read-only once passed to New.
type Config struct {
	// NER is the natural error rate of correct nodes in binary mode: the
	// probability of missing a real event, and of raising a false alarm
	// in a quiet period (Table 1: 0, 1, or 5%).
	NER float64

	// MissProb is the probability a (lying) faulty node suppresses its
	// report of a real event (Table 1: 50%; Table 2: 25%).
	MissProb float64

	// FalseAlarmProb is the probability a (lying) faulty node reports a
	// nonexistent event during a quiet period in binary mode (Table 1:
	// 0, 10, or 75%).
	FalseAlarmProb float64

	// SigmaCorrect is the per-axis standard deviation of a correct node's
	// location noise (Table 2: 1.6 or 2.0).
	SigmaCorrect float64

	// SigmaFaulty is the per-axis standard deviation of a lying node's
	// location noise (Table 2: 4.25 or 6.0).
	SigmaFaulty float64

	// SenseRadius is the protocol's sensing radius r_s, which the
	// adversary is assumed to know: a smart colluder will not transmit a
	// fabricated location outside its own sensing radius, since the
	// cluster head can detect that from known node positions.
	SenseRadius float64

	// LowerTI and UpperTI are the smart-adversary hysteresis thresholds
	// (§4.2: 0.5 and 0.8). A lying smart node switches to correct
	// behaviour when its TI estimate reaches LowerTI and resumes lying
	// once the estimate recovers past UpperTI.
	LowerTI float64
	UpperTI float64

	// Trust configures the self-estimator smart nodes run; it must match
	// the cluster head's parameters for the estimate to track reality.
	Trust core.Params

	// CollusionSilenceProb is the probability a level-2/3 coalition
	// chooses "all silent" over "all report the common fabricated
	// location" for a given event.
	CollusionSilenceProb float64

	// CollusionJitter is the per-axis standard deviation of the
	// independent noise level-3 colluders add to the common fabricated
	// location — the coincidence-guard evasion. Zero (the level-2 value)
	// means exact coincidence.
	CollusionJitter float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"NER", c.NER},
		{"MissProb", c.MissProb},
		{"FalseAlarmProb", c.FalseAlarmProb},
		{"CollusionSilenceProb", c.CollusionSilenceProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("node: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	if c.SigmaCorrect < 0 || c.SigmaFaulty < 0 {
		return fmt.Errorf("node: sigmas must be non-negative")
	}
	if c.LowerTI > c.UpperTI {
		return fmt.Errorf("node: LowerTI (%v) must not exceed UpperTI (%v)", c.LowerTI, c.UpperTI)
	}
	return nil
}

// Node is one sensor node: identity, position, behaviour model, battery,
// and — for smart kinds — the trust self-estimate and hysteresis state.
// The fields are ordered and sized to keep a Node at 80 bytes: a field
// population holds one per sensor.
type Node struct {
	pos  geo.Point
	kind Kind
	cfg  *Config // shared by the population; never written
	// src is the node's own stream. It is a pointer, never a Source held
	// by value: copying a Source that has built its math/rand wrapper
	// would alias its generator.
	src *rng.Source

	battery   *energy.Battery
	est       *core.Estimator
	coalition *Coalition

	id      int32
	timesCH int32 // how many times this node has served as cluster head
	lying   bool
}

// New returns a node with the given identity, position, and behaviour. The
// random source must be unique to the node for runs to be reproducible.
// The node keeps cfg, not a copy: a population shares one Config, which
// must not change after New.
func New(id int, pos geo.Point, kind Kind, cfg *Config, src *rng.Source) (*Node, error) {
	if cfg == nil {
		return nil, fmt.Errorf("node: nil config for node %d", id)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("node: nil rng source for node %d", id)
	}
	if id < math.MinInt32 || id > math.MaxInt32 {
		return nil, fmt.Errorf("node: id %d does not fit in 32 bits", id)
	}
	n := &Node{id: int32(id), pos: pos, kind: Correct, cfg: cfg, src: src}
	if kind != Correct {
		n.Compromise(kind)
	}
	return n, nil
}

// NewPopulation returns the population every simulated network runs:
// node i has ID i, sits at positions[i], starts Correct, and draws from
// its own stream, split from root as "node-<i>" in ID order (one draw
// from root per node). Every node shares cfg, validated once here. A
// caller that starts with faulty nodes compromises them afterwards;
// Compromise draws nothing, so that is bit-identical to building them
// faulty.
//
// The population is three allocations whatever its size: one slab of
// nodes, one slab of streams the nodes point into, and the returned
// slice of pointers.
func NewPopulation(cfg *Config, positions []geo.Point, root *rng.Source) ([]*Node, error) {
	if cfg == nil {
		return nil, fmt.Errorf("node: nil population config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("node: nil population rng source")
	}
	slab := make([]Node, len(positions))
	srcs := make([]rng.Source, len(positions))
	nodes := make([]*Node, len(positions))
	for i, p := range positions {
		root.SplitInto(&srcs[i], "node-", i)
		slab[i] = Node{id: int32(i), pos: p, kind: Correct, cfg: cfg, src: &srcs[i]}
		nodes[i] = &slab[i]
	}
	return nodes, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(id int, pos geo.Point, kind Kind, cfg *Config, src *rng.Source) *Node {
	n, err := New(id, pos, kind, cfg, src)
	if err != nil {
		panic(err)
	}
	return n
}

// ID returns the node's identity.
func (n *Node) ID() int { return int(n.id) }

// Pos returns the node's position, which the simulator treats as ground
// truth known to the cluster head (the paper assumes localization is
// solved, §2).
func (n *Node) Pos() geo.Point { return n.pos }

// Kind returns the node's current behaviour model.
func (n *Node) Kind() Kind { return n.kind }

// Lying reports whether a smart node is currently in its lying phase.
// Level-0 nodes always lie; correct nodes never do.
func (n *Node) Lying() bool {
	switch n.kind {
	case Correct:
		return false
	case Level0:
		return true
	default:
		return n.lying
	}
}

// TrustEstimate returns a smart node's current self-estimate of its trust
// index, or 1 for kinds that do not track one.
func (n *Node) TrustEstimate() float64 {
	if n.est == nil {
		return 1
	}
	return n.est.TI()
}

// AttachBattery gives the node an energy budget (used by LEACH election).
func (n *Node) AttachBattery(b *energy.Battery) { n.battery = b }

// Battery returns the node's battery, or nil if none is attached.
func (n *Node) Battery() *energy.Battery { return n.battery }

// TimesCH returns how many times the node has served as cluster head.
func (n *Node) TimesCH() int { return int(n.timesCH) }

// MarkCH records one term of cluster-head service.
func (n *Node) MarkCH() { n.timesCH++ }

// Compromise converts the node to the given faulty kind (experiment 3's
// network decay). Smart kinds start in the lying phase with a fresh trust
// estimate seeded from full trust — the adversary compromises a node whose
// trust record it inherits, and the estimator converges as soon as the
// node overhears its first few verdicts.
func (n *Node) Compromise(kind Kind) {
	n.kind = kind
	if kind.Smart() {
		n.est = core.NewEstimator(n.cfg.Trust)
		n.lying = true
	} else {
		n.est = nil
		n.lying = kind == Level0
	}
}

// JoinCoalition registers the node with a colluding coalition. It is a
// no-op for non-colluding kinds.
func (n *Node) JoinCoalition(c *Coalition) {
	if !n.kind.Colluding() || c == nil {
		return
	}
	n.coalition = c
	c.add(n)
}

// ObserveVerdict feeds the node the verdict it overheard about its own
// behaviour in the cluster head's decision broadcast. Smart nodes fold it
// into their trust estimate and run the §4.2 hysteresis: stop lying at
// lowerTI, resume past upperTI.
func (n *Node) ObserveVerdict(correct bool) {
	if n.est == nil {
		return
	}
	n.est.Observe(correct)
	ti := n.est.TI()
	if n.lying && ti <= n.cfg.LowerTI {
		n.lying = false
	} else if !n.lying && ti >= n.cfg.UpperTI {
		n.lying = true
	}
}

// SenseBinary decides whether the node reports during one binary-mode
// opportunity. eventOccurred says whether a real event is in progress
// (true) or this is a quiet period (false). The return value is whether
// the node transmits an event report.
func (n *Node) SenseBinary(eventOccurred bool) bool {
	if n.Lying() {
		if eventOccurred {
			return !n.src.Bernoulli(n.cfg.MissProb)
		}
		return n.src.Bernoulli(n.cfg.FalseAlarmProb)
	}
	// Correct behaviour (including smart nodes in their honest phase):
	// err at the natural error rate in either direction.
	if eventOccurred {
		return !n.src.Bernoulli(n.cfg.NER)
	}
	return n.src.Bernoulli(n.cfg.NER)
}

// SenseLocation decides the node's response to a real event at ev in
// location mode. It returns the absolute location the node would report
// and whether it transmits at all. Correct behaviour adds per-axis
// Gaussian noise of SigmaCorrect; lying behaviour either suppresses the
// report (MissProb) or inflates the noise to SigmaFaulty; level-2 liars
// follow their coalition's per-event plan instead.
func (n *Node) SenseLocation(eventID int, ev geo.Point) (geo.Point, bool) {
	if n.battery != nil {
		n.battery.Draw(energy.DefaultModel().SensePerEvent)
	}
	if n.Lying() {
		if n.kind.Colluding() && n.coalition != nil {
			plan := n.coalition.Plan(eventID, ev)
			if plan.Silent {
				return geo.Point{}, false
			}
			lie := plan.Lie
			if n.kind == Level3 && n.cfg.CollusionJitter > 0 {
				lie = n.noisy(lie, n.cfg.CollusionJitter)
			}
			// A smart colluder never claims an event it could not have
			// sensed — the cluster head would catch the range violation
			// from known positions. It stays silent instead.
			if n.cfg.SenseRadius > 0 && n.pos.Dist(lie) > n.cfg.SenseRadius {
				return geo.Point{}, false
			}
			return lie, true
		}
		if n.src.Bernoulli(n.cfg.MissProb) {
			return geo.Point{}, false
		}
		return n.noisy(ev, n.cfg.SigmaFaulty), true
	}
	return n.noisy(ev, n.cfg.SigmaCorrect), true
}

// ReportOffset converts an absolute report location into the polar (r, θ)
// offset the node actually transmits (§3.2).
func (n *Node) ReportOffset(loc geo.Point) geo.Polar {
	return geo.ToPolar(n.pos, loc)
}

func (n *Node) noisy(p geo.Point, sigma float64) geo.Point {
	return geo.Point{
		X: n.src.Gaussian(p.X, sigma),
		Y: n.src.Gaussian(p.Y, sigma),
	}
}

// Plan is a level-2 coalition's per-event instruction.
type Plan struct {
	Silent bool
	Lie    geo.Point
}

// Coalition coordinates level-2 nodes. The paper assumes colluders share
// an undetectable side channel; the coalition object is that channel. For
// each event the coalition flips one coin: with CollusionSilenceProb all
// lying members stay silent, otherwise they all report one common
// fabricated location displaced 2-4 error radii from the truth — far
// enough to form a separate (false) event cluster, close enough that the
// colluders remain event neighbors of the true location.
type Coalition struct {
	cfg     Config
	rError  float64
	src     *rng.Source
	members []*Node
	plans   map[int]Plan
}

// NewCoalition returns an empty coalition. rError is the protocol's
// localization tolerance, which the adversary is assumed to know.
func NewCoalition(cfg Config, rError float64, src *rng.Source) *Coalition {
	return &Coalition{cfg: cfg, rError: rError, src: src, plans: make(map[int]Plan)}
}

func (c *Coalition) add(n *Node) { c.members = append(c.members, n) }

// Size returns the number of registered members.
func (c *Coalition) Size() int { return len(c.members) }

// Plan returns the coalition's instruction for the given event, computing
// it on first request and replaying it for every member thereafter.
func (c *Coalition) Plan(eventID int, ev geo.Point) Plan {
	if p, ok := c.plans[eventID]; ok {
		return p
	}
	var p Plan
	if c.src.Bernoulli(c.cfg.CollusionSilenceProb) {
		p = Plan{Silent: true}
	} else {
		dist := c.src.Uniform(2*c.rError, 4*c.rError)
		theta := c.src.Uniform(0, 2*math.Pi)
		p = Plan{Lie: geo.FromPolar(ev, geo.Polar{R: dist, Theta: theta})}
	}
	c.plans[eventID] = p
	return p
}
