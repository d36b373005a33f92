package tibfit

// This file re-exports the substrate layers for users who want to build
// their own simulations rather than run the packaged experiments: the
// discrete-event kernel, the wireless channel, LEACH-style cluster-head
// election with the base station, and the §3.4 shadow-cluster-head panel.

import (
	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/mobility"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/relay"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/shadow"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/stats"
	"github.com/tibfit/tibfit/internal/trace"
)

// Simulation kernel.
type (
	// Kernel is the deterministic discrete-event scheduler.
	Kernel = sim.Kernel
	// SimTime is a point in virtual time.
	SimTime = sim.Time
	// SimDuration is a span of virtual time.
	SimDuration = sim.Duration
	// Timer is a cancellable scheduled event. Kernel.At and After
	// return it by value, without allocating; the zero Timer is never
	// pending.
	Timer = sim.Timer
)

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return sim.New() }

// Randomness.
type (
	// Rand is a deterministic random stream with the distribution helpers
	// the simulation needs.
	Rand = rng.Source
)

// NewRand returns a deterministic stream for the given seed.
func NewRand(seed int64) *Rand { return rng.New(seed) }

// Wireless channel.
type (
	// RadioConfig describes the channel model.
	RadioConfig = radio.Config
	// Radio is a stochastic wireless channel bound to a kernel.
	Radio = radio.Channel
)

// DefaultRadioConfig returns the channel the experiments use.
func DefaultRadioConfig() RadioConfig { return radio.DefaultConfig() }

// NewRadio returns a channel using the given kernel and random stream.
func NewRadio(cfg RadioConfig, kernel *Kernel, src *Rand) *Radio {
	return radio.NewChannel(cfg, kernel, src)
}

// Aggregators (the cluster-head side of the protocol).
type (
	// BinaryAggregator collects binary reports and runs §3.1 windows.
	BinaryAggregator = aggregator.Binary
	// BinaryAggregatorConfig configures a binary aggregator.
	BinaryAggregatorConfig = aggregator.BinaryConfig
	// BinaryOutcome describes one completed binary window.
	BinaryOutcome = aggregator.BinaryOutcome
	// LocationAggregator runs the §3.2/§3.3 location pipeline.
	LocationAggregator = aggregator.Location
	// LocationAggregatorConfig configures a location aggregator.
	LocationAggregatorConfig = aggregator.LocationConfig
	// LocationOutcome describes one completed aggregation round.
	LocationOutcome = aggregator.LocationOutcome
	// LocationCandidate is the vote result for one event cluster.
	LocationCandidate = aggregator.Candidate
	// Feedback receives per-node verdicts (the decision broadcast).
	Feedback = aggregator.Feedback
)

// NewBinaryAggregator wires a §3.1 aggregator to a kernel. The Weigher is
// adapted into a decision.Scheme; pass a DecisionScheme directly to keep
// scheme-specific behaviour (per-scheme TI, isolation lists).
func NewBinaryAggregator(cfg BinaryAggregatorConfig, w Weigher, kernel *Kernel,
	onDecide func(BinaryOutcome), fb Feedback, tr *Trace) (*BinaryAggregator, error) {
	return aggregator.NewBinary(cfg, decision.Adapt(w), kernel, onDecide, fb, tr)
}

// NewLocationAggregator wires a §3.2/§3.3 aggregator to a kernel for the
// cluster whose members are the ascending node IDs members, over the
// CH-known node positions pos, indexed by node ID. The aggregator keeps
// both slices without copying them.
func NewLocationAggregator(cfg LocationAggregatorConfig, w Weigher, kernel *Kernel,
	members []int, pos []Point, onDecide func(LocationOutcome), fb Feedback, tr *Trace) (*LocationAggregator, error) {
	return aggregator.NewLocation(cfg, decision.Adapt(w), kernel, members, pos, onDecide, fb, tr)
}

// LEACH election and base station.
type (
	// LEACHConfig parameterizes cluster-head elections.
	LEACHConfig = leach.Config
	// Election runs LEACH rounds over a node population.
	Election = leach.Election
	// ElectionResult is the outcome of one election round. Its
	// Affiliation is a []int indexed by node ID: each non-head node's
	// head, or -1 for a head and for a node that heard no head.
	ElectionResult = leach.Result
	// Station is the base station persisting trust across CH terms.
	Station = leach.Station
)

// NewStation returns a base station persisting trust under params.
func NewStation(params TrustParams) (*Station, error) { return leach.NewStation(params) }

// NewElection returns an election controller over the given nodes. Node
// IDs must be dense: nodes[i] carries ID i (build node i with
// NewSensorNode(i, ...)); any other population is rejected with an error
// naming the first index that breaks it.
func NewElection(cfg LEACHConfig, station *Station, channel *Radio,
	nodes []*SensorNode, src *Rand) (*Election, error) {
	return leach.NewElection(cfg, station, channel, nodes, src)
}

// Shadow cluster heads (§3.4).
type (
	// ShadowPanel replicates CH decisions across two shadow cluster heads
	// and majority-votes at the base station on disagreement.
	ShadowPanel = shadow.Panel
	// ShadowReport is the outcome of one replicated decision.
	ShadowReport = shadow.Report
	// Corruptor injects primary-CH fault behaviour.
	Corruptor = shadow.Corruptor
)

// NewShadowPanel returns a panel of one primary and two shadow replicas.
func NewShadowPanel(params TrustParams, primaryNode int, corrupt Corruptor,
	penalty func(primaryNode int)) (*ShadowPanel, error) {
	return shadow.NewPanel(params, primaryNode, corrupt, penalty)
}

// FlipCorruptor returns a Corruptor that inverts decisions with
// probability p using the given coin.
func FlipCorruptor(p float64, coin func(p float64) bool) Corruptor {
	return shadow.FlipCorruptor(p, coin)
}

// Tracing.
type (
	// Trace collects structured protocol events.
	Trace = trace.Trace
)

// NewTrace returns a discarding trace that counts records by kind.
func NewTrace() *Trace { return trace.New() }

// Mobility (§2's mobile networks, §3.2's mobile target).
type (
	// MobilityModel yields a position for any virtual time.
	MobilityModel = mobility.Model
	// StaticModel never moves.
	StaticModel = mobility.Static
	// LinearModel moves at constant velocity, bouncing off area walls.
	LinearModel = mobility.Linear
	// WaypointModel is the random-waypoint trajectory.
	WaypointModel = mobility.Waypoint
)

// NewWaypoint returns a random-waypoint model starting at start.
func NewWaypoint(area geo.Rect, start Point, minSpeed, maxSpeed float64, src *Rand) (*WaypointModel, error) {
	return mobility.NewWaypoint(area, start, minSpeed, maxSpeed, src)
}

// NewArea returns the rectangle spanning (0,0) to (w,h).
func NewArea(w, h float64) geo.Rect { return geo.NewRect(w, h) }

// Multi-hop relay (§3.4's extension beyond one hop).
type (
	// RelayConfig tunes per-hop retransmission.
	RelayConfig = relay.Config
	// Mesh is a multi-hop topology with reliable forwarding.
	Mesh = relay.Mesh
)

// DefaultRelayConfig returns the default retry budget and backoff.
func DefaultRelayConfig() RelayConfig { return relay.DefaultConfig() }

// NewMesh builds a multi-hop topology over positioned nodes.
func NewMesh(cfg RelayConfig, channel *Radio, kernel *Kernel, pos map[int]Point) (*Mesh, error) {
	return relay.NewMesh(cfg, channel, kernel, pos)
}

// Whole-system assembly (clusters + election + base station).
type (
	// NetworkConfig assembles a multi-cluster network.
	NetworkConfig = network.Config
	// Network is the assembled system of figure 1.
	Network = network.Network
	// Declaration is one network-level event declaration.
	Declaration = network.Declaration
)

// DefaultNetworkConfig returns Table-2-like whole-system parameters.
func DefaultNetworkConfig() NetworkConfig { return network.DefaultConfig() }

// NewNetwork assembles a network over the given nodes. As with
// NewElection, nodes[i] must carry ID i; any other population is rejected
// with an error naming the first index that breaks it.
func NewNetwork(cfg NetworkConfig, kernel *Kernel, channel *Radio,
	nodes []*SensorNode, src *Rand, tr *Trace) (*Network, error) {
	return network.New(cfg, kernel, channel, nodes, src, tr)
}

// NewSensorNode constructs a sensor node with the given behaviour model.
func NewSensorNode(id int, pos Point, kind NodeKind, cfg NodeConfig, src *Rand) (*SensorNode, error) {
	return node.New(id, pos, kind, &cfg, src)
}

// Statistics helpers for replicate analysis.
type (
	// StatSample accumulates observations (Welford).
	StatSample = stats.Sample
	// StatSummary bundles descriptive statistics.
	StatSummary = stats.Summary
	// StatInterval is a two-sided confidence interval.
	StatInterval = stats.Interval
)

// Summarize computes descriptive statistics over xs.
func Summarize(xs []float64) StatSummary { return stats.Summarize(xs) }

// Wilson95 returns the Wilson score 95% interval for a proportion.
func Wilson95(successes, trials int) StatInterval { return stats.Wilson95(successes, trials) }
