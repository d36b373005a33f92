package experiment

import (
	"fmt"
	"math"
	"testing"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// Reduced-size configs keep the integration suite fast while preserving
// the dynamics under test.

func quickExp1(t *testing.T) Exp1Config {
	t.Helper()
	cfg := DefaultExp1()
	cfg.Events = 60
	cfg.Runs = 1
	return cfg
}

func quickExp2(t *testing.T) Exp2Config {
	t.Helper()
	cfg := DefaultExp2()
	cfg.Events = 150
	cfg.Runs = 1
	return cfg
}

func TestExp1ConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Exp1Config)
	}{
		{"too few nodes", func(c *Exp1Config) { c.Nodes = 1 }},
		{"zero events", func(c *Exp1Config) { c.Events = 0 }},
		{"period below guard band", func(c *Exp1Config) { c.Period = 2 }},
		{"zero tout", func(c *Exp1Config) { c.Tout = 0; c.Period = 100 }},
		{"fraction above one", func(c *Exp1Config) { c.FaultyFraction = 1.5 }},
		{"bad scheme", func(c *Exp1Config) { c.Scheme = "magic" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultExp1()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestExp2ConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Exp2Config)
	}{
		{"too few nodes", func(c *Exp2Config) { c.Nodes = 2 }},
		{"zero area", func(c *Exp2Config) { c.AreaSide = 0 }},
		{"zero events", func(c *Exp2Config) { c.Events = 0 }},
		{"correct level", func(c *Exp2Config) { c.Level = node.Correct }},
		{"bad scheme", func(c *Exp2Config) { c.Scheme = "magic" }},
		{"zero terms", func(c *Exp2Config) { c.CHTerms = 0 }},
		{"bad decay", func(c *Exp2Config) {
			c.Decay = &workload.DecaySchedule{EventsPerStep: 0}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultExp2()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestExp1IsDeterministic(t *testing.T) {
	cfg := quickExp1(t)
	cfg.FaultyFraction = 0.6
	a, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.FalsePositiveRate != b.FalsePositiveRate ||
		a.MeanFaultyTI != b.MeanFaultyTI || a.MeanCorrectTI != b.MeanCorrectTI {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestExp1PerfectNetworkIsPerfect(t *testing.T) {
	cfg := quickExp1(t)
	cfg.FaultyFraction = 0
	cfg.NER = 0
	res, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("accuracy = %v with no faults and no errors", res.Accuracy)
	}
	if res.FalsePositiveRate != 0 {
		t.Fatalf("false positives = %v", res.FalsePositiveRate)
	}
	if res.MeanCorrectTI != 1 {
		t.Fatalf("correct TI = %v", res.MeanCorrectTI)
	}
}

func TestExp1TrustSeparatesPopulations(t *testing.T) {
	cfg := quickExp1(t)
	cfg.FaultyFraction = 0.5
	res, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFaultyTI >= res.MeanCorrectTI {
		t.Fatalf("faulty TI %v not below correct TI %v", res.MeanFaultyTI, res.MeanCorrectTI)
	}
	if res.MeanFaultyTI > 0.2 {
		t.Fatalf("faulty TI %v did not decay", res.MeanFaultyTI)
	}
}

func TestExp1TIBFITSurvivesMajorityCompromise(t *testing.T) {
	// The headline claim: accurate detection with > 50% compromised.
	cfg := quickExp1(t)
	cfg.Events = 100
	cfg.FaultyFraction = 0.7
	cfg.Runs = 3
	res, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy = %v at 70%% compromise, paper shows > 0.85", res.Accuracy)
	}
}

func TestExp1FalseAlarmsAcceleratesDiagnosis(t *testing.T) {
	// Figure 3's observation: false alarms lower faulty nodes' trust and
	// therefore help the system.
	base := quickExp1(t)
	base.Events = 100
	base.FaultyFraction = 0.8
	base.Runs = 3

	quiet := base
	quiet.FalseAlarmProb = 0
	noisy := base
	noisy.FalseAlarmProb = 0.75

	resQuiet, err := RunExp1(quiet)
	if err != nil {
		t.Fatal(err)
	}
	resNoisy, err := RunExp1(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if resNoisy.MeanFaultyTI >= resQuiet.MeanFaultyTI {
		t.Fatalf("false alarms did not accelerate trust decay: %v vs %v",
			resNoisy.MeanFaultyTI, resQuiet.MeanFaultyTI)
	}
	if resNoisy.Accuracy < resQuiet.Accuracy-0.05 {
		t.Fatalf("false alarms hurt accuracy: %v vs %v", resNoisy.Accuracy, resQuiet.Accuracy)
	}
}

func TestExp2IsDeterministic(t *testing.T) {
	cfg := quickExp2(t)
	a, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.FalsePositiveRate != b.FalsePositiveRate ||
		a.MeanLocErr != b.MeanLocErr {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestExp2TIBFITBeatsBaselinePastHalf(t *testing.T) {
	// Figure 4's claim: past 40% compromised, TIBFIT outperforms the
	// stateless baseline.
	cfg := quickExp2(t)
	cfg.Events = 300
	cfg.FaultyFraction = 0.55

	tib := cfg
	tib.Scheme = SchemeTIBFIT
	base := cfg
	base.Scheme = SchemeBaseline

	resT, err := RunExp2(tib)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunExp2(base)
	if err != nil {
		t.Fatal(err)
	}
	if resT.Accuracy <= resB.Accuracy {
		t.Fatalf("TIBFIT %v not above baseline %v at 55%% compromise",
			resT.Accuracy, resB.Accuracy)
	}
}

func TestExp2IsolatesFaultyNotCorrect(t *testing.T) {
	cfg := quickExp2(t)
	cfg.Events = 300
	cfg.FaultyFraction = 0.4
	res, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsolatedFaulty < 10 {
		t.Fatalf("only %v faulty nodes isolated after 300 events", res.IsolatedFaulty)
	}
	if res.IsolatedCorrect > 2 {
		t.Fatalf("%v correct nodes wrongly isolated", res.IsolatedCorrect)
	}
}

func TestExp2LocalizationWithinTolerance(t *testing.T) {
	cfg := quickExp2(t)
	res, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLocErr <= 0 || res.MeanLocErr > cfg.RError {
		t.Fatalf("mean localization error = %v, want in (0, %v]", res.MeanLocErr, cfg.RError)
	}
}

func TestExp2Level1KeepsHighAccuracy(t *testing.T) {
	// Figure 5: TIBFIT stays above 90% even at 58% level-1 compromise.
	cfg := quickExp2(t)
	cfg.Events = 300
	cfg.Level = node.Level1
	cfg.FaultyFraction = 0.58
	res, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("level-1 accuracy = %v, paper shows > 0.9", res.Accuracy)
	}
}

func TestExp2Level2HurtsBoth(t *testing.T) {
	// Figure 6: collusion degrades TIBFIT too, but less than the baseline.
	cfg := quickExp2(t)
	cfg.Events = 300
	cfg.Level = node.Level2
	cfg.FaultyFraction = 0.58

	tib := cfg
	base := cfg
	base.Scheme = SchemeBaseline

	resT, err := RunExp2(tib)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunExp2(base)
	if err != nil {
		t.Fatal(err)
	}
	if resT.Accuracy > 0.8 {
		t.Fatalf("level-2 collusion barely hurt TIBFIT: %v", resT.Accuracy)
	}
	if resT.Accuracy <= resB.Accuracy {
		t.Fatalf("TIBFIT %v not above baseline %v under collusion",
			resT.Accuracy, resB.Accuracy)
	}
}

func TestExp2ConcurrentEventsComparable(t *testing.T) {
	// Figure 7: concurrency does not significantly alter accuracy.
	cfg := quickExp2(t)
	cfg.Events = 300
	cfg.FaultyFraction = 0.3

	single := cfg
	conc := cfg
	conc.Concurrent = true

	resS, err := RunExp2(single)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := RunExp2(conc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resS.Accuracy-resC.Accuracy) > 0.1 {
		t.Fatalf("concurrent accuracy %v far from single %v", resC.Accuracy, resS.Accuracy)
	}
}

func TestExp3DecayTIBFITOutlastsBaseline(t *testing.T) {
	// Figures 8-9: as compromise grows linearly, TIBFIT's late-run
	// accuracy stays far above the baseline's.
	decay := workload.DefaultDecay()
	cfg := quickExp2(t)
	cfg.Decay = &decay
	cfg.Events = decay.EventsPerStep * 12 // walks 5% → 60%

	tib := cfg
	base := cfg
	base.Scheme = SchemeBaseline

	resT, err := RunExp2(tib)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunExp2(base)
	if err != nil {
		t.Fatal(err)
	}
	lastT := resT.Windowed[len(resT.Windowed)-1]
	lastB := resB.Windowed[len(resB.Windowed)-1]
	if lastT < 0.8 {
		t.Fatalf("TIBFIT late-run accuracy = %v, paper shows ~0.8 at 60%%", lastT)
	}
	if lastT <= lastB {
		t.Fatalf("TIBFIT %v not above baseline %v late in the decay", lastT, lastB)
	}
}

func TestExp3WindowedSeriesLength(t *testing.T) {
	decay := workload.DefaultDecay()
	cfg := quickExp2(t)
	cfg.Decay = &decay
	cfg.Events = 200
	res, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windowed) != 4 {
		t.Fatalf("windowed series length = %d, want 4", len(res.Windowed))
	}
}

func TestRunsAveraging(t *testing.T) {
	cfg := quickExp1(t)
	cfg.Events = 40
	cfg.FaultyFraction = 0.6
	cfg.Runs = 3
	multi, err := RunExp1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r := 0; r < 3; r++ {
		one := cfg
		one.Runs = 1
		one.Seed = cfg.Seed + int64(r)
		res, err := RunExp1(one)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Accuracy
	}
	if math.Abs(multi.Accuracy-sum/3) > 1e-12 {
		t.Fatalf("averaged accuracy %v != mean of singles %v", multi.Accuracy, sum/3)
	}
}

func TestMatchBinary(t *testing.T) {
	mk := func(trigger float64, occurred bool) aggregator.BinaryOutcome {
		return aggregator.BinaryOutcome{
			TriggerTime: sim.Time(trigger),
			DecideTime:  sim.Time(trigger + 1),
			Decision:    core.BinaryDecision{Occurred: occurred},
		}
	}
	events := []float64{100, 200, 300}
	outcomes := []aggregator.BinaryOutcome{
		mk(100.1, true),  // event 1 detected
		mk(150, true),    // false positive (no event near 150)
		mk(200.5, false), // event 2 window decided "no"
		// event 3: no window at all
	}
	det := matchBinary(events, 1, outcomes)
	if det.Accuracy.Detected != 1 || det.Accuracy.Total != 3 {
		t.Fatalf("accuracy = %+v", det.Accuracy)
	}
	if det.FalsePositives != 1 {
		t.Fatalf("false positives = %d", det.FalsePositives)
	}
}

func TestFigureOptionsDefaults(t *testing.T) {
	o := FigureOptions{}.withDefaults()
	if o.Runs != 3 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := FigureOptions{Runs: 7, Seed: 5}.withDefaults()
	if o2.Runs != 7 || o2.Seed != 5 {
		t.Fatalf("overrides lost: %+v", o2)
	}
}

func TestTrustTraceRecordsTrajectories(t *testing.T) {
	cfg := quickExp2(t)
	cfg.Events = 100
	cfg.FaultyFraction = 0.4
	// Find which nodes end up faulty: the compromise permutation is
	// deterministic for a seed, so track every node and inspect after.
	for i := 0; i < cfg.Nodes; i++ {
		cfg.TrackTrust = append(cfg.TrackTrust, i)
	}
	res, err := RunExp2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrustTrace) != cfg.Nodes {
		t.Fatalf("traced %d nodes, want %d", len(res.TrustTrace), cfg.Nodes)
	}
	decayed, stable := 0, 0
	for _, series := range res.TrustTrace {
		if len(series) != cfg.Events {
			t.Fatalf("trace length %d, want %d", len(series), cfg.Events)
		}
		first, last := series[0], series[len(series)-1]
		if first < 0 || first > 1 || last < 0 || last > 1 {
			t.Fatalf("trace values out of [0,1]: %v .. %v", first, last)
		}
		switch {
		case last < 0.35:
			decayed++
		case last > 0.7:
			stable++
		}
	}
	// ~40 faulty nodes decay toward zero; most of the 60 correct nodes
	// stay comfortably trusted (occasional lost votes at 40% compromise
	// leave a few in between).
	if decayed < 30 || stable < 45 {
		t.Fatalf("trajectory split decayed=%d stable=%d, want ~40/~60", decayed, stable)
	}
}

func TestTraceCountsAreConsistent(t *testing.T) {
	// Cross-layer accounting: one run's trace must show as many
	// compromises as configured faulty nodes, and decisions only when
	// reports were delivered.
	tr := tracePkg().Keep()
	cfg := quickExp2(t)
	cfg.Events = 60
	cfg.FaultyFraction = 0.3
	cfg.Trace = tr
	if _, err := RunExp2(cfg); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(traceKindCompromise); got != 30 {
		t.Fatalf("compromise records = %d, want 30", got)
	}
	if tr.Count(traceKindDecision) == 0 {
		t.Fatal("no decision records")
	}
	if tr.Count(traceKindDelivered) == 0 {
		t.Fatal("no delivery records")
	}
	if tr.Count(traceKindElected) < int64OneCH() {
		t.Fatal("no CH election records")
	}
}

// Tiny indirection helpers so the test reads cleanly without extra
// imports at the top of the file.
func tracePkg() *trace.Trace { return trace.New() }
func int64OneCH() int        { return 1 }

var (
	traceKindCompromise = trace.KindCompromise
	traceKindDecision   = trace.KindDecision
	traceKindDelivered  = trace.KindReportDelivered
	traceKindElected    = trace.KindCHElected
)

// TestExp2Pinned pins the full result of the experiment-2 paths that no
// golden figure covers: the level-3 jittering coalition, MAC contention
// with sender backoff, concurrent events under more CH terms, and the
// per-node trust trace. Any change to stream order, coalition
// behaviour, CH rotation or the trace schedule shows here.
func TestExp2Pinned(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Exp2Config)
		want   string
	}{
		{"level3", func(c *Exp2Config) { c.Level = node.Level3 },
			"{Accuracy:0.99 FalsePositiveRate:0 MeanLocErr:0.6757291381856065 MeanFaultyTI:0.5432065549930057 MeanCorrectTI:0.9845773514599141 IsolatedFaulty:2 IsolatedCorrect:0 Windowed:[0.96 1 1 1] TrustTrace:map[]}"},
		{"mac", func(c *Exp2Config) { c.MACCollisionWindow = 0.002 },
			"{Accuracy:0.99 FalsePositiveRate:0 MeanLocErr:0.8768147106229737 MeanFaultyTI:0.26979980328391934 MeanCorrectTI:0.8933536351958845 IsolatedFaulty:30 IsolatedCorrect:0 Windowed:[0.98 0.98 1 1] TrustTrace:map[]}"},
		{"concurrent terms", func(c *Exp2Config) { c.Concurrent = true; c.CHTerms = 6 },
			"{Accuracy:0.945 FalsePositiveRate:0.005 MeanLocErr:0.8817339806867707 MeanFaultyTI:0.2705984858355731 MeanCorrectTI:0.9116898447098482 IsolatedFaulty:30 IsolatedCorrect:0 Windowed:[0.9 0.92 0.96 1] TrustTrace:map[]}"},
		{"trust trace", func(c *Exp2Config) { c.Events = 30; c.TrackTrust = []int{25, 41} },
			"{Accuracy:1 FalsePositiveRate:0 MeanLocErr:1.0750377953344972 MeanFaultyTI:0.6146305926836813 MeanCorrectTI:0.9504818794088424 IsolatedFaulty:4 IsolatedCorrect:0 Windowed:[1] TrustTrace:map[" +
				"25:[1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 0.6376281516217733 0.6376281516217733 0.6376281516217733 0.4065696597405991 0.4065696597405991] " +
				"41:[1 1 1 1 1 1 1 1 1 1 1 1 1 1 0.7985162187593771 0.7985162187593771 0.7985162187593771 0.7985162187593771 0.7985162187593771 0.7985162187593771 0.7985162187593771 0.6376281516217733 0.4065696597405991 0.4065696597405991 0.2592402606458915 0.2592402606458915 0.2592402606458915 0.2592402606458915 0.2592402606458915 0.2592402606458915]]}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultExp2()
			cfg.Events = 200
			tt.mutate(&cfg)
			res, err := RunExp2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", res); got != tt.want {
				t.Errorf("got  %s\nwant %s", got, tt.want)
			}
		})
	}
}
