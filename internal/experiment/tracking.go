package experiment

import (
	"fmt"
	"math"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/mobility"
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
	LocationGrid
	// Emissions is the number of target beacons; EmitPeriod their spacing.
	Emissions  int
	EmitPeriod float64
	// MinSpeed and MaxSpeed bound the target's random-waypoint speed in
	// field units per virtual time unit.
	MinSpeed float64
	MaxSpeed float64
}

// DefaultTracking returns Table 2's parameters with a target that crosses
// a sensing radius in roughly ten emissions.
func DefaultTracking() TrackingConfig {
	return TrackingConfig{
		LocationGrid: defaultLocationGrid(),
		Emissions:    400,
		EmitPeriod:   10,
		MinSpeed:     0.1,
		MaxSpeed:     0.4,
	}
}

// Validate reports whether the configuration is usable.
func (c TrackingConfig) Validate() error {
	if err := c.LocationGrid.validate(); err != nil {
		return err
	}
	switch {
	case c.Emissions <= 0:
		return fmt.Errorf("experiment: Emissions must be positive")
	case c.EmitPeriod <= 4*c.Tout:
		return fmt.Errorf("experiment: EmitPeriod must exceed 4·Tout")
	case c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("experiment: need 0 < MinSpeed <= MaxSpeed")
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
	run := newLocationRun(cfg.LocationGrid, seed, nil)
	// The adversary's streams first, then the node streams.
	run.arm()
	if err := run.populate(); err != nil {
		return TrackingResult{}, err
	}
	run.upTo(cfg.faulty())

	target, err := mobility.NewWaypoint(geo.NewRect(cfg.AreaSide, cfg.AreaSide), run.chPos,
		cfg.MinSpeed, cfg.MaxSpeed, run.root.Split("target"))
	if err != nil {
		return TrackingResult{}, err
	}
	scheme, err := run.newScheme()
	if err != nil {
		return TrackingResult{}, err
	}
	if err := run.attach(scheme, aggregator.LocationConfig{}); err != nil {
		return TrackingResult{}, err
	}

	for i := 0; i < cfg.Emissions; i++ {
		at := float64(i+1) * cfg.EmitPeriod
		ev := workload.Event{ID: i, Time: at, Loc: target.At(at)}
		run.expect(ev)
		if _, err := run.kernel.At(sim.Time(at), func() { run.fire(ev, nil) }); err != nil {
			return TrackingResult{}, err
		}
	}
	run.kernel.RunAll()

	det := run.detection()
	res := TrackingResult{
		Accuracy:          det.Accuracy.Rate(),
		MeanTrackErr:      det.MeanLocErr(),
		FalsePositiveRate: float64(det.FalsePositives) / float64(det.EventCount()),
	}
	if det.LocErrCount == 0 {
		res.MeanTrackErr = math.NaN()
	}
	gap := 0
	for _, t := range run.truths {
		if t.detected {
			gap = 0
		} else {
			gap++
			res.MaxGap = max(res.MaxGap, float64(gap))
		}
	}
	return res, nil
}
