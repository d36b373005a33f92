// Package experiment wires the substrates into the paper's three
// simulation experiments and regenerates every figure of the evaluation
// (§4) plus the closed-form figures of the analysis (§5).
//
//   - Experiment 1: binary event detection, 10-node cluster, level-0
//     faulty nodes with missed and false alarms (figures 2 and 3).
//   - Experiment 2: location determination on a 100-node grid with
//     level-0/1/2 adversaries, single and concurrent events (figures 4-7).
//   - Experiment 3: the decaying network, compromised 5% more every 50
//     events (figures 8 and 9).
//
// Each experiment is a deterministic function of its config (including the
// seed); Runs > 1 averages independent replicates.
package experiment

import (
	"fmt"
	"sort"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/shadow"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// Scheme names accepted by the experiment configs. Any name registered in
// internal/decision is valid; the paper's two are re-exported here for
// convenience.
const (
	SchemeTIBFIT   = decision.SchemeTIBFIT
	SchemeBaseline = decision.SchemeBaseline
)

// Exp1Config holds Table 1's parameters for the binary-event experiment.
type Exp1Config struct {
	// Nodes is the cluster size (Table 1: 10 sensing nodes + 1 CH).
	Nodes int
	// Events is the number of generated events (Table 1: 100).
	Events int
	// Period is the virtual time between events; false alarms land in the
	// quiet span between consecutive events.
	Period float64
	// Tout is the aggregation window T_out.
	Tout float64
	// Lambda is the trust decay constant (Table 1: 0.1).
	Lambda float64
	// NER is the correct nodes' natural error rate (Table 1: 0/1/5%);
	// Table 1 sets the trust table's fault rate f_r equal to it.
	NER float64
	// FaultyFraction is the compromised share of the cluster (40-90%).
	FaultyFraction float64
	// MissProb is the faulty nodes' missed-alarm probability (50%).
	MissProb float64
	// FalseAlarmProb is the faulty nodes' false-alarm probability
	// (0/10/75%).
	FalseAlarmProb float64
	// Scheme selects a registered decision scheme (internal/decision);
	// "tibfit" and "baseline" reproduce the paper's comparison.
	Scheme string
	// LinearTI switches the trust penalty to the linear model — the
	// ablation for §3's argument that the exponential form is better.
	LinearTI bool
	// CHFlipProb makes the cluster head itself arbitrary (§2: "No nodes
	// are considered immune to failure ... or the data sink"): with this
	// probability per decision the CH announces — and settles trust on —
	// the opposite conclusion.
	CHFlipProb float64
	// ShadowCH deploys the §3.4 shadow cluster heads: two replicas
	// overhear the inputs, recompute, and the base station outvotes an
	// exposed lie. Requires the TIBFIT scheme.
	ShadowCH bool
	// Seed makes the run deterministic; replicate r uses Seed+r.
	Seed int64
	// Runs averages this many independent replicates (default 1).
	Runs int
	// WindowEvents sets the windowed-accuracy granularity (default 10).
	WindowEvents int
	// Trace, when non-nil, receives protocol events (single-run only).
	Trace *trace.Trace
}

// DefaultExp1 returns Table 1's fixed parameters with the paper's most
// common variable settings (1% NER, missed alarms only, TIBFIT).
func DefaultExp1() Exp1Config {
	return Exp1Config{
		Nodes:          10,
		Events:         100,
		Period:         100,
		Tout:           1,
		Lambda:         core.DefaultLambdaBinary,
		NER:            0.01,
		FaultyFraction: 0.5,
		MissProb:       0.5,
		FalseAlarmProb: 0,
		Scheme:         SchemeTIBFIT,
		Seed:           1,
		Runs:           1,
	}
}

// Validate reports whether the configuration is usable.
func (c Exp1Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("experiment: need at least 2 nodes, got %d", c.Nodes)
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Period <= 4*c.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v) to separate quiet spans", c.Period, c.Tout)
	case c.Tout <= 0:
		return fmt.Errorf("experiment: Tout must be positive, got %v", c.Tout)
	case c.FaultyFraction < 0 || c.FaultyFraction > 1:
		return fmt.Errorf("experiment: FaultyFraction must be in [0,1], got %v", c.FaultyFraction)
	case !decision.Known(c.Scheme):
		return fmt.Errorf("experiment: unknown scheme %q", c.Scheme)
	case c.CHFlipProb < 0 || c.CHFlipProb > 1:
		return fmt.Errorf("experiment: CHFlipProb must be in [0,1], got %v", c.CHFlipProb)
	case c.ShadowCH && c.Scheme != SchemeTIBFIT:
		return fmt.Errorf("experiment: ShadowCH requires the tibfit scheme")
	}
	return nil
}

// withFigure applies a figure's replicate count, seed, event count,
// scheme and λ. Table 1 ties f_r to the NER, so the options' f_r does
// not apply.
func (c *Exp1Config) withFigure(opts FigureOptions) {
	c.Runs = opts.Runs
	c.Seed = opts.Seed
	if opts.Events > 0 {
		c.Events = opts.Events
	}
	if opts.Scheme != "" {
		c.Scheme = opts.Scheme
	}
	if opts.Lambda > 0 {
		c.Lambda = opts.Lambda
	}
}

// Exp1Result reports a binary-event run.
type Exp1Result struct {
	// Accuracy is the fraction of generated events the CH declared, mean
	// over replicates.
	Accuracy float64
	// FalsePositiveRate is declared-but-nonexistent events per generated
	// event, mean over replicates.
	FalsePositiveRate float64
	// MeanFaultyTI and MeanCorrectTI are end-of-run trust averages
	// (TIBFIT scheme only; 1.0 under the baseline).
	MeanFaultyTI  float64
	MeanCorrectTI float64
	// Windowed is detection accuracy over consecutive event windows,
	// element-wise mean over replicates (see WindowEvents).
	Windowed []float64
}

// RunExp1 executes the binary-event experiment.
func RunExp1(cfg Exp1Config) (Exp1Result, error) {
	if err := cfg.Validate(); err != nil {
		return Exp1Result{}, err
	}
	results, err := runReplicates(cfg.Runs, cfg.Seed, func(seed int64) (Exp1Result, error) {
		return runExp1Once(cfg, seed)
	})
	if err != nil {
		return Exp1Result{}, err
	}
	agg := meanOf(results, func(r *Exp1Result) []*float64 {
		return []*float64{&r.Accuracy, &r.FalsePositiveRate, &r.MeanFaultyTI, &r.MeanCorrectTI}
	})
	agg.Windowed = meanWindowed(results, func(r Exp1Result) []float64 { return r.Windowed })
	return agg, nil
}

func runExp1Once(cfg Exp1Config, seed int64) (Exp1Result, error) {
	kernel := sim.New()
	root := rng.New(seed)

	// Experiment 1 runs a lossless channel: Table 1 sets f_r = NER with
	// no slack for transport loss (unlike Table 2), which is only
	// consistent if reports are never dropped in flight.
	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	nFaulty := int(float64(cfg.Nodes)*cfg.FaultyFraction + 0.5)
	nodeCfg := node.Config{
		NER:            cfg.NER,
		MissProb:       cfg.MissProb,
		FalseAlarmProb: cfg.FalseAlarmProb,
		Trust:          core.Params{Lambda: cfg.Lambda, FaultRate: cfg.NER, Linear: cfg.LinearTI},
	}
	// Nodes sit in a tight ring around the CH at the origin; binary mode
	// has no geometry beyond transmission delays.
	positions := make([]geo.Point, cfg.Nodes)
	members := make([]int, cfg.Nodes)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i + 1), Y: 0}
		members[i] = i
	}
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return Exp1Result{}, err
	}
	for _, n := range nodes[:nFaulty] {
		n.Compromise(node.Level0)
	}

	trustParams := core.Params{Lambda: cfg.Lambda, FaultRate: cfg.NER, Linear: cfg.LinearTI}
	scheme, err := decision.New(cfg.Scheme, decision.Params{Trust: trustParams})
	if err != nil {
		return Exp1Result{}, err
	}

	// An arbitrary cluster head (§3.4): without shadows its lies stand;
	// with them the replicated panel outvotes every exposed flip.
	var decider aggregator.BinaryDecider
	if cfg.CHFlipProb > 0 {
		coin := root.Split("ch-fault")
		if cfg.ShadowCH {
			panel, perr := shadow.NewPanelScheme(cfg.Scheme, decision.Params{Trust: trustParams}, -1,
				shadow.FlipCorruptor(cfg.CHFlipProb, coin.Bernoulli), nil)
			if perr != nil {
				return Exp1Result{}, perr
			}
			scheme = panel.Primary() // isolation checks share the primary's view
			decider = panel
		} else {
			decider = &lyingCH{weigher: scheme, flip: func() bool { return coin.Bernoulli(cfg.CHFlipProb) }}
		}
	}

	var outcomes []aggregator.BinaryOutcome
	feedback := func(id int, correct bool) { nodes[id].ObserveVerdict(correct) }
	agg, err := aggregator.NewBinary(
		aggregator.BinaryConfig{Tout: sim.Duration(cfg.Tout), Members: members, Decider: decider},
		scheme, kernel,
		func(o aggregator.BinaryOutcome) { outcomes = append(outcomes, o) },
		feedback, cfg.Trace)
	if err != nil {
		return Exp1Result{}, err
	}

	chPos := geo.Point{}
	deliver := func(n *node.Node) {
		id := n.ID()
		channel.Send(n.Pos(), chPos, func() { agg.Deliver(id) })
	}

	// Schedule the event opportunities and the interleaved quiet spans.
	quiet := root.Split("quiet")
	eventTimes := make([]float64, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		t := sim.Time(float64(i+1) * cfg.Period)
		eventTimes[i] = float64(t)
		if _, err := kernel.At(t, func() {
			for _, n := range nodes {
				if n.SenseBinary(true) {
					deliver(n)
				}
			}
		}); err != nil {
			return Exp1Result{}, err
		}
		// False alarms land independently in the quiet span after this
		// event, with a 2·Tout guard band on both sides so false-alarm
		// windows never bleed into a real event's window.
		spanLo := float64(t) + 2*cfg.Tout
		spanHi := float64(t) + cfg.Period - 2*cfg.Tout
		for _, n := range nodes {
			if !n.SenseBinary(false) {
				continue
			}
			n := n
			at := sim.Time(quiet.Uniform(spanLo, spanHi))
			if _, err := kernel.At(at, func() { deliver(n) }); err != nil {
				return Exp1Result{}, err
			}
		}
	}

	kernel.RunAll()

	// Match decision windows to ground truth by trigger time.
	det := matchBinary(eventTimes, cfg.Tout, outcomes)
	window := cfg.WindowEvents
	if window <= 0 {
		window = 10
	}
	res := Exp1Result{
		Accuracy:          det.Accuracy.Rate(),
		FalsePositiveRate: float64(det.FalsePositives) / float64(cfg.Events),
		MeanCorrectTI:     meanTI(scheme, members[nFaulty:]),
		MeanFaultyTI:      meanTI(scheme, members[:nFaulty]),
		Windowed:          det.WindowedAccuracy(window),
	}
	return res, nil
}

// matchBinary pairs decision windows with ground-truth events: a window
// whose trigger falls within [t, t+Tout] of event time t is that event's
// decision. Windows matching no event that still declared an occurrence
// are false positives.
func matchBinary(eventTimes []float64, tout float64, outcomes []aggregator.BinaryOutcome) metrics.Detection {
	var det metrics.Detection
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].TriggerTime < outcomes[j].TriggerTime })
	used := make([]bool, len(outcomes))
	for _, t := range eventTimes {
		detected := false
		for i, o := range outcomes {
			if used[i] {
				continue
			}
			trig := float64(o.TriggerTime)
			if trig >= t && trig <= t+tout {
				used[i] = true
				detected = o.Decision.Occurred
				break
			}
			if trig > t+tout {
				break
			}
		}
		det.RecordEvent(detected, 0)
	}
	for i, o := range outcomes {
		if !used[i] && o.Decision.Occurred {
			det.RecordFalsePositive()
		}
	}
	return det
}

// lyingCH models an unprotected arbitrary cluster head: it computes the
// honest vote, flips the announced conclusion with the configured
// probability, and settles trust according to what it announced — a
// consistent liar, the §3.4 threat without the §3.4 defense.
type lyingCH struct {
	weigher core.Weigher
	flip    func() bool
}

// DecideAndSettle implements aggregator.BinaryDecider.
func (l *lyingCH) DecideAndSettle(reporters, silent []int) core.BinaryDecision {
	dec := core.DecideBinary(l.weigher, reporters, silent)
	if l.flip() {
		dec.Occurred = !dec.Occurred
	}
	core.Apply(l.weigher, dec)
	return dec
}

func meanTI(s decision.Scheme, ids []int) float64 {
	if len(ids) == 0 {
		return 1
	}
	var sum float64
	for _, id := range ids {
		sum += s.TI(id)
	}
	return sum / float64(len(ids))
}
