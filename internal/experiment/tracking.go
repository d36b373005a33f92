package experiment

import (
	"fmt"
	"math"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/mobility"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/workload"
)

// TrackingConfig configures the mobile-target scenario §3.2 motivates:
// "a network ... attempting to track a mobile sensor node that is
// transmitting a signal as it moves throughout the network". A target
// follows a random-waypoint trajectory across the field, emitting a
// detectable signal at a fixed period; each emission is an event at the
// target's current position, which the static sensor grid localizes
// through the standard TIBFIT pipeline.
type TrackingConfig struct {
	// Nodes, AreaSide, SenseRadius, RError, Tout mirror Exp2Config.
	Nodes       int
	AreaSide    float64
	SenseRadius float64
	RError      float64
	Tout        float64
	// Trust parameters (Table 2 values by default).
	Lambda           float64
	FaultRate        float64
	RemovalThreshold float64
	// Node behaviour (Table 2 values by default).
	SigmaCorrect   float64
	SigmaFaulty    float64
	MissProb       float64
	FaultyFraction float64
	Level          node.Kind
	LowerTI        float64
	UpperTI        float64
	// Emissions is the number of target beacons; EmitPeriod their spacing.
	Emissions  int
	EmitPeriod float64
	// MinSpeed and MaxSpeed bound the target's random-waypoint speed in
	// field units per virtual time unit.
	MinSpeed float64
	MaxSpeed float64
	// ChannelDrop is the natural packet loss.
	ChannelDrop float64
	// Scheme selects "tibfit" or "baseline".
	Scheme string
	// Seed and Runs as in the other experiments.
	Seed int64
	Runs int
}

// DefaultTracking returns Table 2's parameters with a target that crosses
// a sensing radius in roughly ten emissions.
func DefaultTracking() TrackingConfig {
	return TrackingConfig{
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
		Emissions:        400,
		EmitPeriod:       10,
		MinSpeed:         0.1,
		MaxSpeed:         0.4,
		ChannelDrop:      0.005,
		Scheme:           SchemeTIBFIT,
		Seed:             1,
		Runs:             1,
	}
}

// Validate reports whether the configuration is usable.
func (c TrackingConfig) Validate() error {
	switch {
	case c.Nodes < 4:
		return fmt.Errorf("experiment: need at least 4 nodes, got %d", c.Nodes)
	case c.Emissions <= 0:
		return fmt.Errorf("experiment: Emissions must be positive")
	case c.EmitPeriod <= 4*c.Tout:
		return fmt.Errorf("experiment: EmitPeriod must exceed 4·Tout")
	case c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("experiment: need 0 < MinSpeed <= MaxSpeed")
	case !c.Level.Faulty():
		return fmt.Errorf("experiment: Level must be a faulty kind")
	case !decision.Known(c.Scheme):
		return fmt.Errorf("experiment: unknown scheme %q", c.Scheme)
	}
	return nil
}

// TrackingResult reports a tracking run.
type TrackingResult struct {
	// Accuracy is the fraction of emissions localized within r_error.
	Accuracy float64
	// MeanTrackErr is the mean distance between declared and true target
	// positions over localized emissions.
	MeanTrackErr float64
	// MaxGap is the longest run of consecutive missed emissions — the
	// worst blind stretch of the track.
	MaxGap float64
	// FalsePositiveRate is unmatched declarations per emission.
	FalsePositiveRate float64
}

// RunTracking executes the mobile-target scenario.
func RunTracking(cfg TrackingConfig) (TrackingResult, error) {
	if err := cfg.Validate(); err != nil {
		return TrackingResult{}, err
	}
	results, err := runReplicates(cfg.Runs, cfg.Seed, func(seed int64) (TrackingResult, error) {
		return runTrackingOnce(cfg, seed)
	})
	if err != nil {
		return TrackingResult{}, err
	}
	agg := meanOf(results, func(r *TrackingResult) []*float64 {
		return []*float64{&r.Accuracy, &r.MeanTrackErr, &r.FalsePositiveRate}
	})
	for _, res := range results {
		agg.MaxGap = max(agg.MaxGap, res.MaxGap)
	}
	return agg, nil
}

func runTrackingOnce(cfg TrackingConfig, seed int64) (TrackingResult, error) {
	kernel := sim.New()
	root := rng.New(seed)

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = cfg.ChannelDrop
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	trustParams := core.Params{
		Lambda:           cfg.Lambda,
		FaultRate:        cfg.FaultRate,
		RemovalThreshold: cfg.RemovalThreshold,
	}
	nodeCfg := node.Config{
		MissProb:     cfg.MissProb,
		SigmaCorrect: cfg.SigmaCorrect,
		SigmaFaulty:  cfg.SigmaFaulty,
		SenseRadius:  cfg.SenseRadius,
		LowerTI:      cfg.LowerTI,
		UpperTI:      cfg.UpperTI,
		Trust:        trustParams,
	}

	area := geo.NewRect(cfg.AreaSide, cfg.AreaSide)
	positions := workload.GridPlacement(area, cfg.Nodes)
	order := root.Split("compromise").Perm(cfg.Nodes)
	nFaulty := int(float64(cfg.Nodes)*cfg.FaultyFraction + 0.5)
	coalition := node.NewCoalition(nodeCfg, cfg.RError, root.Split("coalition"))
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return TrackingResult{}, err
	}
	for i := 0; i < nFaulty; i++ {
		nodes[order[i]].Compromise(cfg.Level)
		nodes[order[i]].JoinCoalition(coalition)
	}

	target, err := mobility.NewWaypoint(area,
		geo.Point{X: cfg.AreaSide / 2, Y: cfg.AreaSide / 2},
		cfg.MinSpeed, cfg.MaxSpeed, root.Split("target"))
	if err != nil {
		return TrackingResult{}, err
	}

	scheme, err := decision.New(cfg.Scheme, decision.Params{Trust: trustParams})
	if err != nil {
		return TrackingResult{}, err
	}

	var (
		truths   []*truthEvent
		falsePos int
	)
	var feedback aggregator.Feedback
	if _, stateful := scheme.(decision.Stateful); stateful {
		feedback = func(id int, correct bool) { nodes[id].ObserveVerdict(correct) }
	}
	agg, err := aggregator.NewLocation(
		aggregator.LocationConfig{
			Tout:        sim.Duration(cfg.Tout),
			RError:      cfg.RError,
			SenseRadius: cfg.SenseRadius,
		},
		scheme, kernel, nodeIDs(cfg.Nodes), positions,
		func(o aggregator.LocationOutcome) {
			for _, cand := range o.Candidates {
				if !cand.Occurred {
					continue
				}
				if !matchTruth(truths, cand.Loc, float64(o.DecideTime), cfg.RError, 4*cfg.Tout) {
					falsePos++
				}
			}
		},
		feedback, nil)
	if err != nil {
		return TrackingResult{}, err
	}

	chPos := geo.Point{X: cfg.AreaSide / 2, Y: cfg.AreaSide / 2}
	aggPtr := agg
	for i := 0; i < cfg.Emissions; i++ {
		at := float64(i+1) * cfg.EmitPeriod
		ev := workload.Event{ID: i, Time: at, Loc: target.At(at)}
		tr := &truthEvent{ev: ev}
		truths = append(truths, tr)
		if _, err := kernel.At(sim.Time(at), func() {
			fireLocationEvent(ev, nodes, cfg.SenseRadius, channel, chPos, &aggPtr, nil, nil)
		}); err != nil {
			return TrackingResult{}, err
		}
	}
	kernel.RunAll()

	var res TrackingResult
	detected := 0
	var errSum float64
	gap, maxGap := 0, 0
	for _, tr := range truths {
		if tr.detected {
			detected++
			errSum += tr.locErr
			gap = 0
		} else {
			gap++
			if gap > maxGap {
				maxGap = gap
			}
		}
	}
	res.Accuracy = float64(detected) / float64(len(truths))
	if detected > 0 {
		res.MeanTrackErr = errSum / float64(detected)
	} else {
		res.MeanTrackErr = math.NaN()
	}
	res.MaxGap = float64(maxGap)
	res.FalsePositiveRate = float64(falsePos) / float64(len(truths))
	return res, nil
}
