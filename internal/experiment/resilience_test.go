package experiment

import "testing"

func TestResilienceConfigValidate(t *testing.T) {
	if err := DefaultResilience().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ResilienceConfig){
		func(c *ResilienceConfig) { c.Nodes = 2 },
		func(c *ResilienceConfig) { c.Field = 0 },
		func(c *ResilienceConfig) { c.Events = 0 },
		func(c *ResilienceConfig) { c.Period = c.Tout },
		func(c *ResilienceConfig) { c.CrashFraction = 1.5 },
		func(c *ResilienceConfig) { c.HeadCrashes = -1 },
		func(c *ResilienceConfig) { c.Reclusters = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultResilience()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestResilienceRerunIsByteIdentical extends the determinism regression
// to the chaos-enabled campaign: a full ext-resilience figure — crash
// schedules, head-crash victim picks, failover, retries and all — must
// be a pure function of its seed.
func TestResilienceRerunIsByteIdentical(t *testing.T) {
	opts := FigureOptions{Runs: 2, Events: 40, Seed: 9}
	first, err := FigureResilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := FigureResilience(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serializeFigure(first), serializeFigure(second); a != b {
		t.Errorf("chaos campaign rerun with identical seed changed serialized output\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestFailoverRecoversAccuracy is the PR's acceptance criterion: under
// serving-head crash injection, heartbeat failover plus report retries
// must hold detection accuracy within 5 points of the no-crash baseline.
func TestFailoverRecoversAccuracy(t *testing.T) {
	base := DefaultResilience()
	base.Runs = 3
	base.CrashFraction = 0
	base.HeadCrashes = 0
	base.Failover = false
	baseline, err := RunResilience(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Accuracy < 0.9 {
		t.Fatalf("no-crash baseline accuracy = %v; the campaign itself is broken", baseline.Accuracy)
	}

	crashy := DefaultResilience()
	crashy.Runs = 3
	recovered, err := RunResilience(crashy)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Failovers == 0 {
		t.Fatalf("head crashes injected (%v) but no failover ran", recovered.HeadCrashes)
	}
	if recovered.Accuracy < baseline.Accuracy-0.05 {
		t.Fatalf("failover accuracy %.3f more than 5 points below baseline %.3f",
			recovered.Accuracy, baseline.Accuracy)
	}

	// And the contrast that motivates the machinery: switching it off
	// under the same fault schedule must not do better.
	exposed := crashy
	exposed.Failover = false
	degraded, err := RunResilience(exposed)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Accuracy > recovered.Accuracy {
		t.Fatalf("failover (%.3f) underperformed no-failover (%.3f) under the same faults",
			recovered.Accuracy, degraded.Accuracy)
	}
}
