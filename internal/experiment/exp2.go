package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// Exp2Config holds Table 2's parameters for the location-determination
// experiment, and — with a decay schedule — experiment 3.
type Exp2Config struct {
	// Nodes is the sensor population (Table 2: 100, on a 100×100 grid).
	Nodes int
	// AreaSide is the square deployment area's side length (100).
	AreaSide float64
	// SenseRadius is r_s (§4: "a sensing radius of 20 units").
	SenseRadius float64
	// RError is the localization tolerance r_error (Table 2: 5).
	RError float64
	// Events is the number of generated events.
	Events int
	// Period is the virtual time between event batches.
	Period float64
	// Tout is the aggregation window T_out.
	Tout float64
	// Lambda is the trust decay constant (Table 2: 0.25).
	Lambda float64
	// FaultRate is f_r (Table 2: 0.1, above the correct error rate to
	// compensate for channel losses).
	FaultRate float64
	// RemovalThreshold isolates nodes whose TI falls this low. The paper
	// removes diagnosed nodes "once they reach the threshold"; smart
	// nodes defend a TI of 0.5, so the reproduction uses 0.3.
	RemovalThreshold float64
	// SigmaCorrect and SigmaFaulty are the per-axis location-noise
	// standard deviations (Table 2: 1.6/2.0 and 4.25/6.0).
	SigmaCorrect float64
	SigmaFaulty  float64
	// MissProb is the faulty nodes' report-drop probability (Table 2: 25%).
	MissProb float64
	// FaultyFraction is the initially compromised share (10-58%).
	FaultyFraction float64
	// Level selects the adversary model (Level0, Level1, Level2).
	Level node.Kind
	// LowerTI and UpperTI are the smart-adversary hysteresis bounds
	// (§4.2: 0.5 and 0.8).
	LowerTI float64
	UpperTI float64
	// Concurrent generates two simultaneous events per batch and runs the
	// §3.3 circle protocol.
	Concurrent bool
	// ChannelDrop is the natural per-packet loss (§4.2: "less than 1%").
	ChannelDrop float64
	// MACCollisionWindow, when positive, wraps the channel in the
	// CSMA-style collision model: reports arriving at the CH within this
	// window of each other collide. Event neighbors then jitter their
	// transmissions across half a T_out, as backoff would. Zero (the
	// default and the figures' setting) folds MAC loss into ChannelDrop,
	// as the paper's "<1% natural loss" remark does.
	MACCollisionWindow float64
	// CHTerms rotates the cluster head this many times across the run
	// with base-station trust handoff (Table 2 lists 5 CHs).
	CHTerms int
	// Scheme selects a registered decision scheme (internal/decision);
	// "tibfit" and "baseline" reproduce the paper's comparison.
	Scheme string
	// TrustWeightedCentroid enables the extension that declares events at
	// the trust-weighted average of cluster reports (see
	// aggregator.LocationConfig).
	TrustWeightedCentroid bool
	// CoincidenceGuard enables the anti-collusion extension: coincident
	// report cliques within this distance count as one witness (see
	// aggregator.LocationConfig). Zero = the paper's protocol.
	CoincidenceGuard float64
	// CollusionJitter is the level-3 coalition's per-axis fabrication
	// jitter — the guard-evasion knob (default 1.5 when Level is Level3).
	CollusionJitter float64
	// EventHotspot, when non-nil, concentrates events around this point
	// with deviation EventHotspotSigma instead of the paper's uniform
	// placement — trust then builds only in the hot neighborhoods.
	EventHotspot      *geo.Point
	EventHotspotSigma float64
	// Decay, when non-nil, turns the run into experiment 3: the faulty
	// fraction follows the schedule instead of FaultyFraction.
	Decay *workload.DecaySchedule
	// Seed makes the run deterministic; replicate r uses Seed+r.
	Seed int64
	// Runs averages this many independent replicates (default 1).
	Runs int
	// WindowEvents sets the windowed-accuracy granularity for time-series
	// output (default: the decay schedule's EventsPerStep, else 50).
	WindowEvents int
	// TrackTrust records the listed nodes' trust indices after every
	// event batch into the result's TrustTrace (first replicate only) —
	// the per-node view behind figures 8-9's accuracy curves.
	TrackTrust []int
	// Trace, when non-nil, receives protocol events (single-run only).
	Trace *trace.Trace
}

// DefaultExp2 returns Table 2's fixed parameters with the paper's most
// common variable settings (level 0, σ 1.6/4.25, TIBFIT, single events).
func DefaultExp2() Exp2Config {
	return Exp2Config{
		Nodes:            100,
		AreaSide:         100,
		SenseRadius:      20,
		RError:           5,
		Events:           500,
		Period:           10,
		Tout:             1,
		Lambda:           core.DefaultLambdaLocation,
		FaultRate:        core.DefaultFaultRateLocation,
		RemovalThreshold: 0.3,
		SigmaCorrect:     1.6,
		SigmaFaulty:      4.25,
		MissProb:         0.25,
		FaultyFraction:   0.3,
		Level:            node.Level0,
		LowerTI:          0.5,
		UpperTI:          0.8,
		ChannelDrop:      0.005,
		CHTerms:          5,
		Scheme:           SchemeTIBFIT,
		Seed:             1,
		Runs:             1,
	}
}

// Validate reports whether the configuration is usable.
func (c Exp2Config) Validate() error {
	switch {
	case c.Nodes < 4:
		return fmt.Errorf("experiment: need at least 4 nodes, got %d", c.Nodes)
	case c.AreaSide <= 0 || c.SenseRadius <= 0 || c.RError <= 0:
		return fmt.Errorf("experiment: area, sense radius, and r_error must be positive")
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Period <= 4*c.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v)", c.Period, c.Tout)
	case c.FaultyFraction < 0 || c.FaultyFraction > 1:
		return fmt.Errorf("experiment: FaultyFraction must be in [0,1], got %v", c.FaultyFraction)
	case !c.Level.Faulty():
		return fmt.Errorf("experiment: Level must be a faulty kind, got %v", c.Level)
	case !decision.Known(c.Scheme):
		return fmt.Errorf("experiment: unknown scheme %q", c.Scheme)
	case c.CHTerms < 1:
		return fmt.Errorf("experiment: CHTerms must be at least 1, got %d", c.CHTerms)
	}
	if c.Decay != nil {
		if err := c.Decay.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Exp2Result reports a location-mode run.
type Exp2Result struct {
	// Accuracy is the fraction of events detected within r_error of their
	// true location, mean over replicates.
	Accuracy float64
	// FalsePositiveRate is unmatched declared events per generated event.
	FalsePositiveRate float64
	// MeanLocErr is the mean localization error over detections.
	MeanLocErr float64
	// MeanFaultyTI / MeanCorrectTI are end-of-run trust averages (1.0
	// under the baseline scheme).
	MeanFaultyTI  float64
	MeanCorrectTI float64
	// IsolatedFaulty / IsolatedCorrect count removed nodes by kind.
	IsolatedFaulty  float64
	IsolatedCorrect float64
	// Windowed is detection accuracy over consecutive event windows
	// (experiment 3's time series), element-wise mean over replicates.
	Windowed []float64
	// TrustTrace holds each tracked node's TI after every event batch
	// (first replicate; see Exp2Config.TrackTrust).
	TrustTrace map[int][]float64
}

// RunExp2 executes the location-determination experiment (or experiment 3
// when a decay schedule is set).
func RunExp2(cfg Exp2Config) (Exp2Result, error) {
	if err := cfg.Validate(); err != nil {
		return Exp2Result{}, err
	}
	results, err := runReplicates(cfg.Runs, cfg.Seed, func(seed int64) (Exp2Result, error) {
		return runExp2Once(cfg, seed)
	})
	if err != nil {
		return Exp2Result{}, err
	}
	agg := meanOf(results, func(r *Exp2Result) []*float64 {
		return []*float64{&r.Accuracy, &r.FalsePositiveRate, &r.MeanLocErr, &r.MeanFaultyTI,
			&r.MeanCorrectTI, &r.IsolatedFaulty, &r.IsolatedCorrect}
	})
	agg.Windowed = meanWindowed(results, func(r Exp2Result) []float64 { return r.Windowed })
	agg.TrustTrace = results[0].TrustTrace
	return agg, nil
}

// truthEvent is one ground-truth occurrence awaiting detection.
type truthEvent struct {
	ev       workload.Event
	detected bool
	locErr   float64
}

func runExp2Once(cfg Exp2Config, seed int64) (Exp2Result, error) {
	kernel := sim.New()
	root := rng.New(seed)

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = cfg.ChannelDrop
	var channel sender = radio.NewChannel(chCfg, kernel, root.Split("channel"))
	if cfg.MACCollisionWindow > 0 {
		channel = radio.NewContendingChannel(channel.(*radio.Channel),
			radio.MACConfig{CollisionWindow: sim.Duration(cfg.MACCollisionWindow), CaptureProb: 0.1})
	}

	trustParams := core.Params{
		Lambda:           cfg.Lambda,
		FaultRate:        cfg.FaultRate,
		RemovalThreshold: cfg.RemovalThreshold,
	}
	jitter := cfg.CollusionJitter
	//lint:allow floateq unset-config sentinel; the zero value means "use the default"
	if jitter == 0 && cfg.Level == node.Level3 {
		jitter = 1.5
	}
	nodeCfg := node.Config{
		MissProb:             cfg.MissProb,
		SigmaCorrect:         cfg.SigmaCorrect,
		SigmaFaulty:          cfg.SigmaFaulty,
		SenseRadius:          cfg.SenseRadius,
		LowerTI:              cfg.LowerTI,
		UpperTI:              cfg.UpperTI,
		Trust:                trustParams,
		CollusionSilenceProb: 0.5,
		CollusionJitter:      jitter,
	}

	area := geo.NewRect(cfg.AreaSide, cfg.AreaSide)
	positions := workload.GridPlacement(area, cfg.Nodes)
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return Exp2Result{}, err
	}
	members := nodeIDs(cfg.Nodes)

	// The compromise order is a fixed random permutation; the static
	// experiment compromises a prefix up front, the decay experiment
	// extends the prefix as the schedule advances.
	order := root.Split("compromise").Perm(cfg.Nodes)
	coalition := node.NewCoalition(nodeCfg, cfg.RError, root.Split("coalition"))
	compromised := 0
	compromiseUpTo := func(target int) {
		for ; compromised < target && compromised < cfg.Nodes; compromised++ {
			n := nodes[order[compromised]]
			n.Compromise(cfg.Level)
			n.JoinCoalition(coalition)
			cfg.Trace.Emit(float64(kernel.Now()), trace.KindCompromise, n.ID(), "kind=%v", cfg.Level)
		}
	}
	initialTarget := int(float64(cfg.Nodes)*cfg.FaultyFraction + 0.5)
	if cfg.Decay != nil {
		initialTarget = cfg.Decay.CompromisedAt(0, cfg.Nodes)
	}
	compromiseUpTo(initialTarget)

	// Trust state survives CH rotation through the base station.
	station, err := leach.NewStation(trustParams)
	if err != nil {
		return Exp2Result{}, err
	}

	trustTrace := make(map[int][]float64, len(cfg.TrackTrust))
	var (
		truths    []*truthEvent
		falsePos  int
		curScheme decision.Scheme
		curAgg    *aggregator.Location
		aggCfg    = aggregator.LocationConfig{
			Tout:                  sim.Duration(cfg.Tout),
			RError:                cfg.RError,
			SenseRadius:           cfg.SenseRadius,
			Concurrent:            cfg.Concurrent,
			TrustWeightedCentroid: cfg.TrustWeightedCentroid,
			CoincidenceGuard:      cfg.CoincidenceGuard,
		}
	)
	// Smart adversaries self-censor to dodge the isolation threshold.
	// Under a stateless scheme there is no trust state and no isolation,
	// so a rational adversary never stops lying: the verdict broadcast is
	// only wired to the nodes when the scheme carries trust state.
	newScheme := func() (decision.Scheme, error) {
		s, err := decision.New(cfg.Scheme, decision.Params{Trust: trustParams})
		if err != nil {
			return nil, err
		}
		if st, ok := s.(decision.Stateful); ok {
			st.Restore(station.Snapshot())
		}
		return s, nil
	}
	probe, err := newScheme()
	if err != nil {
		return Exp2Result{}, err
	}
	var feedback aggregator.Feedback
	if _, stateful := probe.(decision.Stateful); stateful {
		feedback = func(id int, correct bool) { nodes[id].ObserveVerdict(correct) }
	}
	onDecide := func(o aggregator.LocationOutcome) {
		for _, cand := range o.Candidates {
			if !cand.Occurred {
				continue
			}
			if !matchTruth(truths, cand.Loc, float64(o.DecideTime), cfg.RError, 4*cfg.Tout) {
				falsePos++
			}
		}
	}
	rotate := func() error {
		if st, ok := curScheme.(decision.Stateful); ok {
			station.StoreSnapshot(st.Snapshot())
		}
		s, err := newScheme()
		if err != nil {
			return err
		}
		a, err := aggregator.NewLocation(aggCfg, s, kernel, members, positions, onDecide, feedback, cfg.Trace)
		if err != nil {
			return err
		}
		curScheme, curAgg = s, a
		cfg.Trace.Emit(float64(kernel.Now()), trace.KindCHElected, -1, "term rotation")
		return nil
	}
	if err := rotate(); err != nil {
		return Exp2Result{}, err
	}

	chPos := geo.Point{X: cfg.AreaSide / 2, Y: cfg.AreaSide / 2}
	gen := workload.NewGenerator(area, cfg.Period, root.Split("events"))
	gen.Concurrent = cfg.Concurrent
	gen.MinSeparation = cfg.RError
	gen.Hotspot = cfg.EventHotspot
	gen.HotspotSigma = cfg.EventHotspotSigma

	batches := cfg.Events
	if cfg.Concurrent {
		batches = (cfg.Events + 1) / 2
	}
	termLen := batches / cfg.CHTerms
	if termLen < 1 {
		termLen = 1
	}

	eventIndex := 0
	for b := 0; b < batches && eventIndex < cfg.Events; b++ {
		batch := gen.Batch(b)
		if !cfg.Concurrent {
			batch = batch[:1]
		}
		// Rotate the CH between terms, halfway through the quiet gap so
		// no aggregation window straddles the handoff.
		if b > 0 && b%termLen == 0 {
			at := sim.Time(batch[0].Time - cfg.Period/2)
			if _, err := kernel.At(at, func() {
				if err := rotate(); err != nil {
					panic(err) // construction cannot fail after the first rotate succeeded
				}
			}); err != nil {
				return Exp2Result{}, err
			}
		}
		if len(cfg.TrackTrust) > 0 {
			at := sim.Time(batch[0].Time + cfg.Period/4)
			if _, err := kernel.At(at, func() {
				for _, id := range cfg.TrackTrust {
					trustTrace[id] = append(trustTrace[id], curScheme.TI(id))
				}
			}); err != nil {
				return Exp2Result{}, err
			}
		}
		for _, ev := range batch {
			if eventIndex >= cfg.Events {
				break
			}
			ev := ev
			idx := eventIndex
			t := &truthEvent{ev: ev}
			truths = append(truths, t)
			eventIndex++
			var backoff func(send func())
			if cfg.MACCollisionWindow > 0 {
				jitter := root.Split(fmt.Sprintf("jitter-%d", ev.ID))
				backoff = func(send func()) { kernel.After(sim.Duration(jitter.Uniform(0, cfg.Tout/2)), send) }
			}
			if _, err := kernel.At(sim.Time(ev.Time), func() {
				if cfg.Decay != nil {
					compromiseUpTo(cfg.Decay.CompromisedAt(idx, cfg.Nodes))
				}
				fireLocationEvent(ev, nodes, cfg.SenseRadius, channel, chPos, &curAgg, cfg.Trace, backoff)
			}); err != nil {
				return Exp2Result{}, err
			}
		}
	}

	kernel.RunAll()

	// Fold ground truth into the run result.
	var det metrics.Detection
	window := cfg.WindowEvents
	if window <= 0 {
		if cfg.Decay != nil {
			window = cfg.Decay.EventsPerStep
		} else {
			window = 50
		}
	}
	for _, t := range truths {
		det.RecordEvent(t.detected, t.locErr)
	}
	res := Exp2Result{
		TrustTrace:        trustTrace,
		Accuracy:          det.Accuracy.Rate(),
		FalsePositiveRate: float64(falsePos) / float64(len(truths)),
		MeanLocErr:        det.MeanLocErr(),
		Windowed:          det.WindowedAccuracy(window),
	}
	var corr, faul []int
	for i, n := range nodes {
		if n.Kind().Faulty() {
			faul = append(faul, i)
		} else {
			corr = append(corr, i)
		}
	}
	res.MeanCorrectTI = meanTI(curScheme, corr)
	res.MeanFaultyTI = meanTI(curScheme, faul)
	for _, id := range curScheme.IsolatedNodes() {
		if nodes[id].Kind().Faulty() {
			res.IsolatedFaulty++
		} else {
			res.IsolatedCorrect++
		}
	}
	return res, nil
}

// sender is the transmit surface both the flat channel and the MAC
// contention wrapper provide.
type sender interface {
	Send(from, to geo.Point, deliver sim.Handler) radio.Outcome
}

// fireLocationEvent makes every event neighbor sense and (maybe) report
// the event. The aggregator pointer is indirected because CH rotation
// replaces the aggregator mid-run. A non-nil backoff sends each report
// when it chooses instead of at once: CSMA-style sender backoff, which
// keeps a burst of reports from colliding under the MAC contention model.
func fireLocationEvent(ev workload.Event, nodes []*node.Node, senseRadius float64,
	channel sender, chPos geo.Point, agg **aggregator.Location, tr *trace.Trace, backoff func(send func())) {
	for _, n := range nodes {
		if n.Pos().Dist(ev.Loc) > senseRadius {
			continue
		}
		loc, send := n.SenseLocation(ev.ID, ev.Loc)
		if !send {
			continue
		}
		id := n.ID()
		off := n.ReportOffset(loc)
		tr.Emit(ev.Time, trace.KindReportSent, id, "event=%d", ev.ID)
		if backoff == nil {
			sendReport(channel, n.Pos(), chPos, agg, id, off, ev.Time, tr)
			continue
		}
		from := n.Pos()
		backoff(func() { sendReport(channel, from, chPos, agg, id, off, ev.Time, tr) })
	}
}

// sendReport transmits one location report to the cluster head, tracing
// a drop.
func sendReport(channel sender, from, chPos geo.Point, agg **aggregator.Location,
	id int, off geo.Polar, at float64, tr *trace.Trace) {
	if out := channel.Send(from, chPos, func() { (*agg).Deliver(id, off) }); out != radio.Delivered {
		tr.Emit(at, trace.KindReportDropped, id, "%v", out)
	}
}

// matchTruth marks the nearest unmatched ground-truth event within rError
// and the time window as detected; it reports whether a match was found.
func matchTruth(truths []*truthEvent, loc geo.Point, decideTime, rError, maxAge float64) bool {
	var best *truthEvent
	bestDist := rError
	for i := len(truths) - 1; i >= 0; i-- {
		t := truths[i]
		if t.ev.Time > decideTime {
			continue
		}
		if decideTime-t.ev.Time > maxAge {
			break // truths are time-ordered; older ones are out of window
		}
		if t.detected {
			continue
		}
		if d := t.ev.Loc.Dist(loc); d <= bestDist {
			best, bestDist = t, d
		}
	}
	if best == nil {
		return false
	}
	best.detected = true
	best.locErr = bestDist
	return true
}

// nodeIDs returns the IDs 0 … n-1 of a population from
// node.NewPopulation: the member list of a cluster head that hears the
// whole field.
func nodeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
