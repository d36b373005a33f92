// Package tibfit is a Go implementation of TIBFIT — Trust Index Based
// Fault Tolerance for arbitrary data faults in event-driven wireless
// sensor networks (Krasniewski, Varadharajan, Rabeler, Bagchi, Hu; DSN
// 2005) — together with the discrete-event simulation substrate, adversary
// models, and experiment harness that reproduce the paper's evaluation.
//
// # Protocol
//
// Sensor nodes report events to a cluster head. The cluster head keeps a
// trust index TI = exp(-λ·v) per node, where the fault accumulator v rises
// by 1-f_r on every report judged faulty and falls by f_r on every report
// judged correct. Event decisions compare the cumulative trust index (CTI)
// of the nodes reporting an event against that of the event neighbors that
// stayed silent; the heavier side wins, and trust is settled accordingly.
// Because the vote is stateful, the network keeps deciding correctly even
// after more than half its nodes are compromised — provided the compromise
// arrives gradually enough for trust to accumulate first.
//
// # Quick start
//
//	table := tibfit.NewTrustTable(tibfit.TrustParams{Lambda: 0.1, FaultRate: 0.01})
//	dec := tibfit.DecideBinary(table, reporters, silent)
//	tibfit.Apply(table, dec)
//	if dec.Occurred { ... }
//
// For location events, cluster the reports first:
//
//	clusters := tibfit.ClusterReports(reports, rError)
//
// and vote per cluster. The aggregator package wires both modes to a
// simulation kernel with T_out windows and the §3.3 concurrent-event
// circle protocol; the experiment runners (RunExp1, RunExp2) and figure
// generators (GenerateFigure) reproduce the paper's evaluation end to end.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-reproduction comparison of every table and figure.
package tibfit

import (
	"github.com/tibfit/tibfit/internal/analysis"
	"github.com/tibfit/tibfit/internal/cluster"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/experiment"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/workload"
)

// Trust-index engine (§3).
type (
	// TrustParams configures the trust-index update rule.
	TrustParams = core.Params
	// TrustTable is the per-node trust state a cluster head maintains.
	TrustTable = core.Table
	// TrustRecord is one node's trust state.
	TrustRecord = core.Record
	// Weigher abstracts the voting-weight policy (TIBFIT or baseline).
	Weigher = core.Weigher
	// Baseline is the stateless majority-voting comparison scheme.
	Baseline = core.Baseline
	// BinaryDecision is the outcome of one CTI vote.
	BinaryDecision = core.BinaryDecision
	// TrustEstimator mirrors the sink-side trust computation, as smart
	// adversaries do to dodge isolation.
	TrustEstimator = core.Estimator
)

// Default protocol constants from the paper's experiments.
const (
	DefaultLambdaBinary      = core.DefaultLambdaBinary
	DefaultLambdaLocation    = core.DefaultLambdaLocation
	DefaultFaultRateLocation = core.DefaultFaultRateLocation
)

// NewTrustTable returns an empty trust table; it fails on invalid params.
func NewTrustTable(p TrustParams) (*TrustTable, error) { return core.NewTable(p) }

// MustNewTrustTable is NewTrustTable for compile-time-constant params.
func MustNewTrustTable(p TrustParams) *TrustTable { return core.MustNewTable(p) }

// NewTrustEstimator returns a node-side trust self-estimator.
func NewTrustEstimator(p TrustParams) *TrustEstimator { return core.NewEstimator(p) }

// DecideBinary runs the §3.1 vote: reporters versus silent event
// neighbors, heavier cumulative trust wins, ties resolve to "no event".
func DecideBinary(w Weigher, reporters, silent []int) BinaryDecision {
	return core.DecideBinary(w, reporters, silent)
}

// Apply commits the trust updates a decision implies.
func Apply(w Weigher, d BinaryDecision) { core.Apply(w, d) }

// CTI sums the vote weights of a node set under a weighing policy.
func CTI(w Weigher, nodes []int) float64 { return core.CTI(w, nodes) }

// Geometry and location-report clustering (§3.2).
type (
	// Point is an absolute position on the deployment plane.
	Point = geo.Point
	// Polar is the (r, θ) offset an event report carries.
	Polar = geo.Polar
	// Report is one resolved location report.
	Report = cluster.Report
	// EventCluster is one group of mutually consistent reports.
	EventCluster = cluster.EventCluster
)

// ClusterReports groups location reports into event clusters of radius
// rError using the paper's K-means-style heuristic.
func ClusterReports(reports []Report, rError float64) []EventCluster {
	return cluster.Cluster(reports, rError)
}

// Adversary models (§2.1).
type (
	// NodeKind identifies a behaviour model (Correct, Level0-2).
	NodeKind = node.Kind
	// SensorNode is a simulated sensor with a behaviour model.
	SensorNode = node.Node
	// NodeConfig holds behaviour parameters.
	NodeConfig = node.Config
	// Coalition coordinates level-2 colluders.
	Coalition = node.Coalition
)

// Behaviour kinds.
const (
	Correct = node.Correct
	Level0  = node.Level0
	Level1  = node.Level1
	Level2  = node.Level2
	// Level3 is the extension adversary: a coalition that jitters its
	// fabrications to evade coincidence detection.
	Level3 = node.Level3
)

// Experiments and figures (§4, §5).
type (
	// Exp1Config configures the binary-event experiment (Table 1).
	Exp1Config = experiment.Exp1Config
	// Exp1Result reports a binary-event run.
	Exp1Result = experiment.Exp1Result
	// LocationGrid holds the Table 2 parameters Exp2Config and
	// TrackingConfig share: grid, trust, adversary and scheme.
	LocationGrid = experiment.LocationGrid
	// Exp2Config configures the location experiments (Table 2) and, with
	// a decay schedule, experiment 3.
	Exp2Config = experiment.Exp2Config
	// Exp2Result reports a location-mode run.
	Exp2Result = experiment.Exp2Result
	// FigureOptions tunes figure regeneration.
	FigureOptions = experiment.FigureOptions
	// Figure is a regenerated paper figure.
	Figure = metrics.Figure
	// Series is one line of a figure.
	Series = metrics.Series
	// DecaySchedule is experiment 3's compromise growth schedule.
	DecaySchedule = workload.DecaySchedule
)

// Scheme names for the experiment configs. Any name registered in the
// decision registry is accepted; DecisionSchemeNames lists them all.
const (
	SchemeTIBFIT   = experiment.SchemeTIBFIT
	SchemeBaseline = experiment.SchemeBaseline
)

// Decision-engine layer: the pluggable voting schemes behind every
// aggregator and experiment.
type (
	// DecisionScheme is the pluggable per-report weighing / window
	// arbitration / post-decision feedback policy.
	DecisionScheme = decision.Scheme
	// DecisionParams configures a scheme instance.
	DecisionParams = decision.Params
)

// NewDecisionScheme builds a registered scheme by name ("tibfit",
// "majority", "linear", "dynamic-trust", "fuzzy", alias "baseline").
func NewDecisionScheme(name string, p DecisionParams) (DecisionScheme, error) {
	return decision.New(name, p)
}

// DecisionSchemeNames lists the registered canonical scheme names, sorted.
func DecisionSchemeNames() []string { return decision.Names() }

// DecisionSchemeTitle returns the scheme's human-readable figure-legend
// title.
func DecisionSchemeTitle(name string) string { return decision.Title(name) }

// Tracking (the §3.2 mobile-target application) and parameter sweeps
// (§7 future work).
type (
	// TrackingConfig configures the mobile-target tracking scenario.
	TrackingConfig = experiment.TrackingConfig
	// TrackingResult reports a tracking run.
	TrackingResult = experiment.TrackingResult
)

// DefaultTracking returns the mobile-target scenario's default config.
func DefaultTracking() TrackingConfig { return experiment.DefaultTracking() }

// RunTracking executes the mobile-target tracking scenario.
func RunTracking(cfg TrackingConfig) (TrackingResult, error) {
	return experiment.RunTracking(cfg)
}

// SweepExp1N varies one binary-experiment parameter over a value list.
// Sweep points fan out on the deterministic campaign pool with the given
// worker count (1 = sequential, 0 = one per core). Results are
// byte-identical at any worker count.
func SweepExp1N(param string, values []float64, base Exp1Config, workers int) (Figure, error) {
	return experiment.SweepExp1N(param, values, base, workers)
}

// SweepExp2N varies one location-experiment parameter over a value
// list, on the campaign pool as SweepExp1N does.
func SweepExp2N(param string, values []float64, base Exp2Config, workers int) (Figure, error) {
	return experiment.SweepExp2N(param, values, base, workers)
}

// DefaultExp1 returns Table 1's parameters.
func DefaultExp1() Exp1Config { return experiment.DefaultExp1() }

// DefaultExp2 returns Table 2's parameters.
func DefaultExp2() Exp2Config { return experiment.DefaultExp2() }

// DefaultDecay returns experiment 3's compromise schedule.
func DefaultDecay() DecaySchedule { return workload.DefaultDecay() }

// RunExp1 executes the binary-event experiment.
func RunExp1(cfg Exp1Config) (Exp1Result, error) { return experiment.RunExp1(cfg) }

// RunExp2 executes the location experiments (2 and 3).
func RunExp2(cfg Exp2Config) (Exp2Result, error) { return experiment.RunExp2(cfg) }

// FigureIDs lists every reproducible figure.
func FigureIDs() []string { return experiment.FigureIDs() }

// GenerateFigure regenerates one paper figure by ID ("figure2" ...
// "figure11-roots").
func GenerateFigure(id string, opts FigureOptions) (Figure, error) {
	return experiment.Generate(id, opts)
}

// Closed-form analysis (§5).

// MajoritySuccess is the probability stateless majority voting identifies
// an event with n event neighbors, m faulty, correct-report probabilities
// p (correct nodes) and q (faulty nodes) — equations 1-3.
func MajoritySuccess(n, m int, p, q float64) float64 {
	return analysis.MajoritySuccess(n, m, p, q)
}

// MinInterCompromiseEvents solves the §5 transition equation for the
// minimum event spacing between compromises TIBFIT tolerates (figure 11).
func MinInterCompromiseEvents(lambda float64, n int) (float64, error) {
	return analysis.MinInterCompromiseEvents(lambda, n)
}

// KMax is the §5 bound ln(3)/λ on the rounds needed to absorb the final
// tolerable compromise.
func KMax(lambda float64) float64 { return analysis.KMax(lambda) }

// ExpectedTI returns the closed-form expected trust index after k judged
// reports for a node erring at errRate under (λ, f_r).
func ExpectedTI(lambda, fr, errRate float64, k int) float64 {
	return analysis.ExpectedTI(lambda, fr, errRate, k)
}

// ReportsUntilTI returns how many judged reports a node erring at errRate
// needs before sinking to the target trust index (ok=false if it never
// sinks).
func ReportsUntilTI(lambda, fr, errRate, targetTI float64) (int, bool) {
	return analysis.ReportsUntilTI(lambda, fr, errRate, targetTI)
}

// ReliabilityPoint is one sample of the semi-analytic reliability model.
type ReliabilityPoint = analysis.ReliabilityPoint

// TIBFITBinarySuccess is the semi-analytic per-event success probability
// of the trust-weighted vote given population trust levels (the §7
// "predict system reliability" model).
func TIBFITBinarySuccess(n, m int, p, q, tiCorrect, tiFaulty float64) float64 {
	return analysis.TIBFITBinarySuccess(n, m, p, q, tiCorrect, tiFaulty)
}

// ReliabilityCurve predicts TIBFIT's per-event success probability over a
// binary-experiment run via the self-consistent trust recursion.
func ReliabilityCurve(n, m, events int, p, missProb, lambda, fr float64) []ReliabilityPoint {
	return analysis.ReliabilityCurve(n, m, events, p, missProb, lambda, fr)
}

// PredictedRunAccuracy averages the reliability curve — comparable to a
// simulated run's measured accuracy.
func PredictedRunAccuracy(n, m, events int, p, missProb, lambda, fr float64) float64 {
	return analysis.PredictedRunAccuracy(n, m, events, p, missProb, lambda, fr)
}

// EventsToRecover predicts how many events the system needs before its
// per-event success probability reaches target (ok=false if never within
// horizon).
func EventsToRecover(n, m int, p, missProb, lambda, fr, target float64, horizon int) (int, bool) {
	return analysis.EventsToRecover(n, m, p, missProb, lambda, fr, target, horizon)
}

// Location-mode analytics.
type (
	// NeighborHist is the event-neighbor-count distribution of a
	// deployment's geometry.
	NeighborHist = analysis.NeighborHist
	// LocationParams carries per-node useful-report probabilities for the
	// location-mode success model.
	LocationParams = analysis.LocationParams
)

// NeighborCounts integrates the neighbor-count distribution over the
// deployment area on a deterministic evaluation lattice.
func NeighborCounts(area geo.Rect, sensors []Point, senseRadius float64, gridSteps int) (NeighborHist, error) {
	return analysis.NeighborCounts(area, sensors, senseRadius, gridSteps)
}

// LocationSuccess predicts the probability a uniformly placed event is
// detected within r_error, composing neighborhood geometry, the
// hypergeometric compromise split, and the trust-weighted vote.
func LocationSuccess(hist NeighborHist, popN, popFaulty int, p LocationParams) float64 {
	return analysis.LocationSuccess(hist, popN, popFaulty, p)
}

// Hypergeometric returns P(k faulty in a size-n neighborhood drawn from a
// population of popN sensors with popFaulty faulty).
func Hypergeometric(popN, popFaulty, n, k int) float64 {
	return analysis.Hypergeometric(popN, popFaulty, n, k)
}

// RayleighExceedProb is the probability 2-D Gaussian location noise with
// per-axis deviation sigma lands more than r away — Table 2's "error
// rate" column.
func RayleighExceedProb(sigma, r float64) float64 {
	return rng.RayleighExceedProb(sigma, r)
}

// HysteresisCycle describes a smart adversary's lie/recover oscillation.
type HysteresisCycle = analysis.HysteresisCycle

// Hysteresis computes the closed-form §4.2 oscillation: how long a smart
// adversary lies before its self-estimate hits lowerTI, how long it must
// behave to recover past upperTI, and the effective error rate that duty
// cycle leaves it — the mechanism behind figure 5.
func Hysteresis(lambda, fr, errLying, errHonest, lowerTI, upperTI float64) (HysteresisCycle, error) {
	return analysis.Hysteresis(lambda, fr, errLying, errHonest, lowerTI, upperTI)
}
