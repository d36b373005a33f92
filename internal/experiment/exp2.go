package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// Exp2Config holds Table 2's parameters for the location-determination
// experiment, and — with a decay schedule — experiment 3.
type Exp2Config struct {
	LocationGrid
	// Events is the number of generated events.
	Events int
	// Period is the virtual time between event batches.
	Period float64
	// Concurrent generates two simultaneous events per batch and runs the
	// §3.3 circle protocol.
	Concurrent bool
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
	// TrustWeightedCentroid enables the extension that declares events at
	// the trust-weighted average of cluster reports (see
	// aggregator.LocationConfig).
	TrustWeightedCentroid bool
	// CoincidenceGuard enables the anti-collusion extension: coincident
	// report cliques within this distance count as one witness (see
	// aggregator.LocationConfig). Zero = the paper's protocol.
	CoincidenceGuard float64
	// EventHotspot, when non-nil, concentrates events around this point
	// with deviation EventHotspotSigma instead of the paper's uniform
	// placement — trust then builds only in the hot neighborhoods.
	EventHotspot      *geo.Point
	EventHotspotSigma float64
	// Decay, when non-nil, turns the run into experiment 3: the faulty
	// fraction follows the schedule instead of FaultyFraction.
	Decay *workload.DecaySchedule
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
	return Exp2Config{LocationGrid: defaultLocationGrid(), Events: 500, Period: 10, CHTerms: 5}
}

// Validate reports whether the configuration is usable.
func (c Exp2Config) Validate() error {
	if err := c.LocationGrid.validate(); err != nil {
		return err
	}
	switch {
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Period <= 4*c.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v)", c.Period, c.Tout)
	case c.CHTerms < 1:
		return fmt.Errorf("experiment: CHTerms must be at least 1, got %d", c.CHTerms)
	}
	if c.Decay != nil {
		return c.Decay.Validate()
	}
	return nil
}

// withFigure applies a figure's options: LocationGrid's, and the event
// count.
func (c *Exp2Config) withFigure(opts FigureOptions) {
	c.LocationGrid.withFigure(opts)
	if opts.Events > 0 {
		c.Events = opts.Events
	}
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

func runExp2Once(cfg Exp2Config, seed int64) (Exp2Result, error) {
	run := newLocationRun(cfg.LocationGrid, seed, cfg.Trace)
	if cfg.MACCollisionWindow > 0 {
		run.channel = radio.NewContendingChannel(run.channel.(*radio.Channel),
			radio.MACConfig{CollisionWindow: sim.Duration(cfg.MACCollisionWindow), CaptureProb: 0.1})
	}
	// Node streams first, then the adversary's. The static experiment
	// compromises a prefix of the order up front, the decay experiment
	// extends the prefix as the schedule advances.
	if err := run.populate(); err != nil {
		return Exp2Result{}, err
	}
	run.arm()
	if cfg.Decay != nil {
		run.upTo(cfg.Decay.CompromisedAt(0, cfg.Nodes))
	} else {
		run.upTo(cfg.faulty())
	}

	// Trust state survives CH rotation through the base station.
	station, err := leach.NewStation(cfg.trust())
	if err != nil {
		return Exp2Result{}, err
	}
	aggCfg := aggregator.LocationConfig{
		Concurrent:            cfg.Concurrent,
		TrustWeightedCentroid: cfg.TrustWeightedCentroid,
		CoincidenceGuard:      cfg.CoincidenceGuard,
	}
	rotate := func() error {
		if st, ok := run.scheme.(decision.Stateful); ok {
			station.StoreSnapshot(st.Snapshot())
		}
		s, err := run.newScheme()
		if err != nil {
			return err
		}
		if st, ok := s.(decision.Stateful); ok {
			st.Restore(station.Snapshot())
		}
		if err := run.attach(s, aggCfg); err != nil {
			return err
		}
		cfg.Trace.Emit(float64(run.kernel.Now()), trace.KindCHElected, -1, "term rotation")
		return nil
	}
	if err := rotate(); err != nil {
		return Exp2Result{}, err
	}

	kernel := run.kernel
	gen := workload.NewGenerator(geo.NewRect(cfg.AreaSide, cfg.AreaSide), cfg.Period, run.root.Split("events"))
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

	trustTrace := make(map[int][]float64, len(cfg.TrackTrust))
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
					trustTrace[id] = append(trustTrace[id], run.scheme.TI(id))
				}
			}); err != nil {
				return Exp2Result{}, err
			}
		}
		for _, ev := range batch {
			if eventIndex >= cfg.Events {
				break
			}
			idx := eventIndex
			run.expect(ev)
			eventIndex++
			var jitter *rng.Source
			if cfg.MACCollisionWindow > 0 {
				jitter = run.root.Split(fmt.Sprintf("jitter-%d", ev.ID))
			}
			if _, err := kernel.At(sim.Time(ev.Time), func() {
				if cfg.Decay != nil {
					run.upTo(cfg.Decay.CompromisedAt(idx, cfg.Nodes))
				}
				run.fire(ev, jitter)
			}); err != nil {
				return Exp2Result{}, err
			}
		}
	}

	kernel.RunAll()

	window := cfg.WindowEvents
	if window <= 0 {
		if cfg.Decay != nil {
			window = cfg.Decay.EventsPerStep
		} else {
			window = 50
		}
	}
	det := run.detection()
	res := Exp2Result{
		TrustTrace:        trustTrace,
		Accuracy:          det.Accuracy.Rate(),
		FalsePositiveRate: float64(det.FalsePositives) / float64(det.EventCount()),
		MeanLocErr:        det.MeanLocErr(),
		Windowed:          det.WindowedAccuracy(window),
	}
	var corr, faul []int
	for i, n := range run.nodes {
		if n.Kind().Faulty() {
			faul = append(faul, i)
		} else {
			corr = append(corr, i)
		}
	}
	res.MeanCorrectTI = meanTI(run.scheme, corr)
	res.MeanFaultyTI = meanTI(run.scheme, faul)
	for _, id := range run.scheme.IsolatedNodes() {
		if run.nodes[id].Kind().Faulty() {
			res.IsolatedFaulty++
		} else {
			res.IsolatedCorrect++
		}
	}
	return res, nil
}
