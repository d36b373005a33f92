package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// LocationGrid holds Table 2's parameters that every location campaign
// shares: the sensor grid, the trust table, the adversary and the
// decision scheme. Experiment 2 (and, with a decay schedule, 3) and the
// mobile-target tracking scenario embed it and add their own workload.
type LocationGrid struct {
	// Nodes is the sensor population (Table 2: 100, on a 100×100 grid).
	Nodes int
	// AreaSide is the square deployment area's side length (100).
	AreaSide float64
	// SenseRadius is r_s (§4: "a sensing radius of 20 units").
	SenseRadius float64
	// RError is the localization tolerance r_error (Table 2: 5).
	RError float64
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
	// Level selects the adversary model (Level0 … Level3). A level-2 or
	// level-3 coalition stays silent on half the events; level-3
	// colluders jitter the common lie by 1.5 units per axis.
	Level node.Kind
	// LowerTI and UpperTI are the smart-adversary hysteresis bounds
	// (§4.2: 0.5 and 0.8).
	LowerTI float64
	UpperTI float64
	// ChannelDrop is the natural per-packet loss (§4.2: "less than 1%").
	ChannelDrop float64
	// Scheme selects a registered decision scheme (internal/decision);
	// "tibfit" and "baseline" reproduce the paper's comparison.
	Scheme string
	// Seed makes the run deterministic; replicate r uses Seed+r.
	Seed int64
	// Runs averages this many independent replicates (default 1).
	Runs int
}

// defaultLocationGrid returns Table 2's fixed parameters with the
// paper's most common variable settings (level 0, σ 1.6/4.25, 30%
// compromised, TIBFIT).
func defaultLocationGrid() LocationGrid {
	return LocationGrid{
		Nodes:            100,
		AreaSide:         100,
		SenseRadius:      20,
		RError:           5,
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
		Scheme:           SchemeTIBFIT,
		Seed:             1,
		Runs:             1,
	}
}

// validate reports whether the shared settings are usable.
func (g LocationGrid) validate() error {
	switch {
	case g.Nodes < 4:
		return fmt.Errorf("experiment: need at least 4 nodes, got %d", g.Nodes)
	case g.AreaSide <= 0 || g.SenseRadius <= 0 || g.RError <= 0:
		return fmt.Errorf("experiment: area, sense radius, and r_error must be positive")
	case g.FaultyFraction < 0 || g.FaultyFraction > 1:
		return fmt.Errorf("experiment: FaultyFraction must be in [0,1], got %v", g.FaultyFraction)
	case !g.Level.Faulty():
		return fmt.Errorf("experiment: Level must be a faulty kind, got %v", g.Level)
	case !decision.Known(g.Scheme):
		return fmt.Errorf("experiment: unknown scheme %q", g.Scheme)
	}
	return nil
}

// withFigure applies a figure's replicate count, seed, scheme, λ and f_r.
func (g *LocationGrid) withFigure(opts FigureOptions) {
	g.Runs = opts.Runs
	g.Seed = opts.Seed
	if opts.Scheme != "" {
		g.Scheme = opts.Scheme
	}
	if opts.Lambda > 0 {
		g.Lambda = opts.Lambda
	}
	if opts.FaultRate > 0 {
		g.FaultRate = opts.FaultRate
	}
}

// trust returns the cluster head's trust parameters, which smart nodes'
// self-estimators share.
func (g LocationGrid) trust() core.Params {
	return core.Params{Lambda: g.Lambda, FaultRate: g.FaultRate, RemovalThreshold: g.RemovalThreshold}
}

// nodeConfig returns the node behaviour every location campaign runs.
func (g LocationGrid) nodeConfig() node.Config {
	return node.Config{
		MissProb:             g.MissProb,
		SigmaCorrect:         g.SigmaCorrect,
		SigmaFaulty:          g.SigmaFaulty,
		SenseRadius:          g.SenseRadius,
		LowerTI:              g.LowerTI,
		UpperTI:              g.UpperTI,
		Trust:                g.trust(),
		CollusionSilenceProb: 0.5,
		CollusionJitter:      1.5, // read by level-3 colluders only
	}
}

// faulty is the number of nodes FaultyFraction compromises.
func (g LocationGrid) faulty() int { return int(float64(g.Nodes)*g.FaultyFraction + 0.5) }

// locationRun is one replicate of a location campaign: the grid
// population, its adversary, one whole-field cluster head at the centre
// and the ground-truth ledger its decisions are matched against. The
// campaign drives it in its own order: populate and arm each split
// streams from the root, so each campaign calls them in the order its
// streams were first drawn.
type locationRun struct {
	LocationGrid
	kernel    *sim.Kernel
	root      *rng.Source
	channel   sender
	tr        *trace.Trace
	nodeCfg   node.Config
	positions []geo.Point
	members   []int
	chPos     geo.Point
	nodes     []*node.Node

	// The adversary: compromise order, coalition, and how much of the
	// order is compromised so far.
	order       []int
	coalition   *node.Coalition
	compromised int

	// The cluster head: CH rotation replaces both.
	scheme decision.Scheme
	agg    *aggregator.Location

	// The truth ledger.
	truths   []*truthEvent
	falsePos int

	// free holds the report records no event is using.
	free []*report
}

// newLocationRun builds the kernel, the root stream and the channel for
// one replicate, and places the grid. tr may be nil.
func newLocationRun(g LocationGrid, seed int64, tr *trace.Trace) *locationRun {
	kernel := sim.New()
	root := rng.New(seed)
	chCfg := radio.DefaultConfig()
	chCfg.DropProb = g.ChannelDrop
	return &locationRun{
		LocationGrid: g,
		kernel:       kernel,
		root:         root,
		channel:      radio.NewChannel(chCfg, kernel, root.Split("channel")),
		tr:           tr,
		nodeCfg:      g.nodeConfig(),
		positions:    workload.GridPlacement(geo.NewRect(g.AreaSide, g.AreaSide), g.Nodes),
		members:      nodeIDs(g.Nodes),
		chPos:        geo.Point{X: g.AreaSide / 2, Y: g.AreaSide / 2},
	}
}

// populate builds the honest population on the grid, splitting one
// stream per node from the root.
func (r *locationRun) populate() error {
	nodes, err := node.NewPopulation(&r.nodeCfg, r.positions, r.root)
	r.nodes = nodes
	return err
}

// arm splits the adversary's streams: a fixed random compromise order
// and the coalition's side channel. Nobody is compromised yet.
func (r *locationRun) arm() {
	r.order = r.root.Split("compromise").Perm(r.Nodes)
	r.coalition = node.NewCoalition(r.nodeCfg, r.RError, r.root.Split("coalition"))
}

// upTo compromises nodes along the order until n of them are: static
// campaigns call it once, the decay experiment as its schedule advances.
func (r *locationRun) upTo(n int) {
	for ; r.compromised < n && r.compromised < r.Nodes; r.compromised++ {
		nd := r.nodes[r.order[r.compromised]]
		nd.Compromise(r.Level)
		nd.JoinCoalition(r.coalition)
		r.tr.Emit(float64(r.kernel.Now()), trace.KindCompromise, nd.ID(), "kind=%v", r.Level)
	}
}

// newScheme returns a fresh instance of the configured decision scheme.
func (r *locationRun) newScheme() (decision.Scheme, error) {
	return decision.New(r.Scheme, decision.Params{Trust: r.trust()})
}

// attach makes a cluster head over the whole grid, running s, the one
// every later report reaches. ext carries the aggregator's extensions;
// attach fills in Table 2's window and radii.
//
// Smart adversaries self-censor to dodge the isolation threshold. Under
// a stateless scheme there is no trust state and no isolation, so a
// rational adversary never stops lying: the verdict broadcast is only
// wired to the nodes when the scheme carries trust state.
func (r *locationRun) attach(s decision.Scheme, ext aggregator.LocationConfig) error {
	ext.Tout = sim.Duration(r.Tout)
	ext.RError = r.RError
	ext.SenseRadius = r.SenseRadius
	var feedback aggregator.Feedback
	if _, stateful := s.(decision.Stateful); stateful {
		feedback = func(id int, correct bool) { r.nodes[id].ObserveVerdict(correct) }
	}
	a, err := aggregator.NewLocation(ext, s, r.kernel, r.members, r.positions, r.onDecide, feedback, r.tr)
	if err != nil {
		return err
	}
	r.scheme, r.agg = s, a
	return nil
}

// expect enters a ground-truth event into the ledger; events must be
// entered in time order.
func (r *locationRun) expect(ev workload.Event) {
	r.truths = append(r.truths, &truthEvent{ev: ev})
}

// onDecide matches every declared occurrence against the ledger and
// counts the unmatched ones as false positives.
func (r *locationRun) onDecide(o aggregator.LocationOutcome) {
	for _, cand := range o.Candidates {
		if !cand.Occurred {
			continue
		}
		if !matchTruth(r.truths, cand.Loc, float64(o.DecideTime), r.RError, 4*r.Tout) {
			r.falsePos++
		}
	}
}

// detection folds the ledger into the run's detection record.
func (r *locationRun) detection() metrics.Detection {
	det := metrics.Detection{FalsePositives: r.falsePos}
	for _, t := range r.truths {
		det.RecordEvent(t.detected, t.locErr)
	}
	return det
}

// fire makes every event neighbor sense and (maybe) report the event to
// the current cluster head. A non-nil jitter delays each report by a
// uniform draw from [0, T_out/2): CSMA-style sender backoff, which keeps a
// burst of reports from colliding under the MAC contention model.
//
//hot:path
func (r *locationRun) fire(ev workload.Event, jitter *rng.Source) {
	for _, n := range r.nodes {
		if n.Pos().Dist(ev.Loc) > r.SenseRadius {
			continue
		}
		loc, send := n.SenseLocation(ev.ID, ev.Loc)
		if !send {
			continue
		}
		rep := r.newReport()
		rep.from, rep.id, rep.off, rep.at = n.Pos(), n.ID(), n.ReportOffset(loc), ev.Time
		if r.tr.Verbose() {
			//lint:allow hotalloc formatting only when the trace keeps or streams records
			r.tr.Emit(ev.Time, trace.KindReportSent, rep.id, "event=%d", ev.ID)
		} else {
			r.tr.Hit(trace.KindReportSent)
		}
		if jitter == nil {
			rep.send()
			continue
		}
		r.kernel.After(sim.Duration(jitter.Uniform(0, r.Tout/2)), rep.transmit)
	}
}

// report is one location report on its way from a node to the cluster
// head. Records come from the run's free list and go back to it once the
// report is dropped or delivered, and each binds its two kernel handlers
// when it is built, so a report in flight allocates nothing. The location
// channel injects no duplicates, so a delivered report arrives once.
type report struct {
	r    *locationRun
	from geo.Point
	id   int
	off  geo.Polar
	at   float64 // the event's time, for the drop trace

	transmit sim.Handler // send, after a sender backoff
	deliver  sim.Handler // arrive, on reaching the head
}

// newReport takes a record from the free list, building one only when the
// list is empty: a run builds as many as it has reports in flight at once.
func (r *locationRun) newReport() *report {
	if n := len(r.free); n > 0 {
		rep := r.free[n-1]
		r.free = r.free[:n-1]
		return rep
	}
	//lint:allow hotalloc built only when every record is in flight; records are recycled
	rep := &report{r: r}
	//lint:allow hotalloc bound once per record, not per report
	rep.transmit = rep.send
	//lint:allow hotalloc bound once per record, not per report
	rep.deliver = rep.arrive
	return rep
}

// send transmits the report to the cluster head, tracing a drop. A
// dropped report's record is free at once.
//
//hot:path
func (rep *report) send() {
	r := rep.r
	out := r.channel.Send(rep.from, r.chPos, rep.deliver)
	if out == radio.Delivered {
		return
	}
	if r.tr.Verbose() {
		//lint:allow hotalloc formatting only when the trace keeps or streams records
		r.tr.Emit(rep.at, trace.KindReportDropped, rep.id, "%v", out)
	} else {
		r.tr.Hit(trace.KindReportDropped)
	}
	r.release(rep)
}

// arrive hands the report to the cluster head. The head is read on
// delivery, so a report in flight across a CH rotation reaches the new
// one.
//
//hot:path
func (rep *report) arrive() {
	rep.r.agg.Deliver(rep.id, rep.off)
	rep.r.release(rep)
}

// release returns a record to the free list.
func (r *locationRun) release(rep *report) { r.free = append(r.free, rep) }

// sender is the transmit surface both the flat channel and the MAC
// contention wrapper provide.
type sender interface {
	Send(from, to geo.Point, deliver sim.Handler) radio.Outcome
}

// truthEvent is one ground-truth occurrence awaiting detection.
type truthEvent struct {
	ev       workload.Event
	detected bool
	locErr   float64
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
