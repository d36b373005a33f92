package experiment

import (
	"testing"

	"github.com/tibfit/tibfit/internal/chaos"
)

func TestByzantineConfigValidate(t *testing.T) {
	if err := DefaultByzantine().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ByzantineConfig){
		func(c *ByzantineConfig) { c.Nodes = 2 },
		func(c *ByzantineConfig) { c.Field = 0 },
		func(c *ByzantineConfig) { c.Events = 0 },
		func(c *ByzantineConfig) { c.Period = c.Tout },
		func(c *ByzantineConfig) { c.ByzFraction = 1.5 },
		func(c *ByzantineConfig) { c.ByzFraction = -0.1 },
		func(c *ByzantineConfig) { c.Reclusters = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultByzantine()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestByzantineRerunIsByteIdentical extends the determinism regression
// to the adversarial-head campaign: a full ext-byzantine-resilience
// figure — compromise schedules, behaviour draws, victim picks,
// escalations, quarantines and re-elections — must be a pure function
// of its seed.
func TestByzantineRerunIsByteIdentical(t *testing.T) {
	opts := FigureOptions{Runs: 2, Events: 24, Seed: 9}
	first, err := FigureByzantineResilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := FigureByzantineResilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serializeFigure(first), serializeFigure(second); a != b {
		t.Errorf("byzantine campaign rerun with identical seed changed serialized output\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestQuarantineRecoversAccuracy is the PR's acceptance criterion: with
// 20% of heads Byzantine and the quarantine defense on, event-decision
// accuracy must recover to within 5 points of the fault-free baseline,
// and the station must actually catch compromised heads.
func TestQuarantineRecoversAccuracy(t *testing.T) {
	base := DefaultByzantine()
	base.Runs = 3
	base.ByzFraction = 0
	baseline, err := RunByzantine(base)
	if err != nil {
		t.Fatal(err)
	}
	// The bar is 0.8, not the resilience campaign's 0.9: this campaign
	// must recluster (handoff attacks fire at uploads), and every
	// snapshot round ages honest out-of-range members' trust — the
	// documented whole-network binary assembly property the resilience
	// campaign sidesteps by never reclustering.
	if baseline.EventAccuracy < 0.8 {
		t.Fatalf("fault-free baseline accuracy = %v; the campaign itself is broken", baseline.EventAccuracy)
	}

	defended := DefaultByzantine()
	defended.Runs = 3
	recovered, err := RunByzantine(defended)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Byzantine == 0 {
		t.Fatal("20% byzantine fraction compromised no heads")
	}
	if recovered.EventAccuracy < baseline.EventAccuracy-0.05 {
		t.Fatalf("quarantine accuracy %.3f more than 5 points below baseline %.3f",
			recovered.EventAccuracy, baseline.EventAccuracy)
	}

	// The contrast that motivates the machinery needs a heavier
	// adversary to rise above replication noise: at 20% the honest
	// clusters' redundant coverage masks a single liar either way, so
	// compare the arms at 50% Byzantine heads.
	heavy := DefaultByzantine()
	heavy.Runs = 3
	heavy.ByzFraction = 0.5
	heavyDefended, err := RunByzantine(heavy)
	if err != nil {
		t.Fatal(err)
	}
	heavy.Quarantine = false
	heavyExposed, err := RunByzantine(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if heavyDefended.EventAccuracy < heavyExposed.EventAccuracy {
		t.Fatalf("at 50%% byzantine, quarantine (%.3f) underperformed no-quarantine (%.3f)",
			heavyDefended.EventAccuracy, heavyExposed.EventAccuracy)
	}
	if heavyDefended.DetectionAccuracy == 0 {
		t.Fatal("no compromised head detected at 50% byzantine")
	}
}

// TestQuarantineCatchesInvertingHeads pins detection on the loudest
// behaviour: a head that inverts decisions triggers shadow escalations
// every event, so the station must quarantine it.
func TestQuarantineCatchesInvertingHeads(t *testing.T) {
	cfg := DefaultByzantine()
	cfg.ByzFraction = 0.3
	cfg.Behaviors = []chaos.Behavior{chaos.BehaviorInvert}
	res, err := RunByzantine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Byzantine == 0 {
		t.Fatal("no heads compromised")
	}
	if res.Escalations == 0 {
		t.Fatal("inverting heads triggered no shadow escalations")
	}
	if res.DetectionAccuracy == 0 {
		t.Fatalf("no inverting head quarantined (byzantine=%v quarantined=%v)",
			res.Byzantine, res.Quarantined)
	}
}
