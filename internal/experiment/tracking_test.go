package experiment

import (
	"fmt"
	"testing"

	"github.com/tibfit/tibfit/internal/node"
)

func quickTracking() TrackingConfig {
	cfg := DefaultTracking()
	cfg.Emissions = 150
	cfg.Runs = 1
	return cfg
}

func TestTrackingConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TrackingConfig)
	}{
		{"too few nodes", func(c *TrackingConfig) { c.Nodes = 2 }},
		{"zero emissions", func(c *TrackingConfig) { c.Emissions = 0 }},
		{"period below guard band", func(c *TrackingConfig) { c.EmitPeriod = 2 }},
		{"zero speed", func(c *TrackingConfig) { c.MinSpeed = 0 }},
		{"inverted speeds", func(c *TrackingConfig) { c.MinSpeed, c.MaxSpeed = 2, 1 }},
		{"correct level", func(c *TrackingConfig) { c.Level = node.Correct }},
		{"bad scheme", func(c *TrackingConfig) { c.Scheme = "magic" }},
		{"faulty 1.5", func(c *TrackingConfig) { c.FaultyFraction = 1.5 }},
		{"zero area", func(c *TrackingConfig) { c.AreaSide = 0 }},
		{"zero sense radius", func(c *TrackingConfig) { c.SenseRadius = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultTracking()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestTrackingDeterministic(t *testing.T) {
	cfg := quickTracking()
	a, err := RunTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

// TestTrackingPinned pins the default campaign's full result: the
// compromise order and coalition streams are split before the node
// streams, and any change to that order or to population set-up shows
// here.
func TestTrackingPinned(t *testing.T) {
	res, err := RunTracking(DefaultTracking())
	if err != nil {
		t.Fatal(err)
	}
	const want = "{Accuracy:0.9925 MeanTrackErr:0.7759452936210981 MaxGap:1 FalsePositiveRate:0}"
	if got := fmt.Sprintf("%+v", res); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestTrackingFollowsTarget(t *testing.T) {
	cfg := quickTracking()
	res, err := RunTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("tracking accuracy = %v at 30%% compromise, want >= 0.9", res.Accuracy)
	}
	if res.MeanTrackErr <= 0 || res.MeanTrackErr > cfg.RError {
		t.Fatalf("track error = %v", res.MeanTrackErr)
	}
	if res.MaxGap > 10 {
		t.Fatalf("blind stretch of %v emissions", res.MaxGap)
	}
}

func TestTrackingTIBFITBeatsBaselineWhenCompromised(t *testing.T) {
	cfg := quickTracking()
	cfg.Emissions = 250
	cfg.FaultyFraction = 0.55

	tib := cfg
	base := cfg
	base.Scheme = SchemeBaseline

	resT, err := RunTracking(tib)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunTracking(base)
	if err != nil {
		t.Fatal(err)
	}
	if resT.Accuracy <= resB.Accuracy {
		t.Fatalf("TIBFIT tracking %v not above baseline %v at 55%%",
			resT.Accuracy, resB.Accuracy)
	}
}

// TestTrackingLevel1Pinned pins a smart (level-1) adversary's tracking
// result: its verdict feedback and trust self-estimate run on the same
// streams as the default campaign's.
func TestTrackingLevel1Pinned(t *testing.T) {
	cfg := DefaultTracking()
	cfg.Level = node.Level1
	res, err := RunTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "{Accuracy:0.995 MeanTrackErr:0.6529121669489028 MaxGap:1 FalsePositiveRate:0}"
	if got := fmt.Sprintf("%+v", res); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
