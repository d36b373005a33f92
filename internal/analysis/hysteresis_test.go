package analysis

import (
	"math"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/rng"
)

func TestHysteresisValidation(t *testing.T) {
	cases := []struct {
		name                                          string
		lambda, fr, errLying, errHonest, lower, upper float64
	}{
		{"zero lambda", 0, 0.1, 0.5, 0.01, 0.5, 0.8},
		{"inverted thresholds", 0.25, 0.1, 0.5, 0.01, 0.8, 0.5},
		{"upper at one", 0.25, 0.1, 0.5, 0.01, 0.5, 1},
		{"never sinks", 0.25, 0.1, 0.05, 0.01, 0.5, 0.8},
		{"never recovers", 0.25, 0.1, 0.5, 0.5, 0.5, 0.8},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Hysteresis(tt.lambda, tt.fr, tt.errLying, tt.errHonest, tt.lower, tt.upper); err == nil {
				t.Fatal("invalid parameters accepted")
			}
		})
	}
}

func TestHysteresisAlgebra(t *testing.T) {
	// λ=0.25, thresholds 0.5/0.8: span = (ln 0.8 - ln 0.5)/0.25 = 1.880.
	// errLying=0.5, fr=0.1: lie drift 0.4 → 4.70 events to sink.
	// errHonest=0, recovery drift 0.1 → 18.8 events to recover.
	c, err := Hysteresis(0.25, 0.1, 0.5, 0, 0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	span := (math.Log(0.8) - math.Log(0.5)) / 0.25
	if math.Abs(c.LieEvents-span/0.4) > 1e-9 {
		t.Fatalf("LieEvents = %v", c.LieEvents)
	}
	if math.Abs(c.RecoverEvents-span/0.1) > 1e-9 {
		t.Fatalf("RecoverEvents = %v", c.RecoverEvents)
	}
	wantDuty := (span / 0.4) / (span/0.4 + span/0.1)
	if math.Abs(c.Duty-wantDuty) > 1e-9 {
		t.Fatalf("Duty = %v, want %v", c.Duty, wantDuty)
	}
	if math.Abs(c.EffectiveErrRate-wantDuty*0.5) > 1e-9 {
		t.Fatalf("EffectiveErrRate = %v", c.EffectiveErrRate)
	}
	// The paper's insight, quantified: hysteresis caps this adversary's
	// effective error rate at a fifth of its lying-phase rate.
	if c.Duty > 0.25 {
		t.Fatalf("duty cycle %v, expected the recovery phase to dominate", c.Duty)
	}
}

// TestHysteresisMatchesNodeSimulation drives a real level-1 node through
// the verdict loop the model assumes and compares its measured lying duty
// cycle against the closed form.
func TestHysteresisMatchesNodeSimulation(t *testing.T) {
	const (
		lambda    = 0.25
		fr        = 0.1
		errLying  = 0.6
		errHonest = 0.02
		lower     = 0.5
		upper     = 0.8
	)
	model, err := Hysteresis(lambda, fr, errLying, errHonest, lower, upper)
	if err != nil {
		t.Fatal(err)
	}

	cfg := node.Config{
		SenseRadius: 20,
		LowerTI:     lower,
		UpperTI:     upper,
		Trust:       core.Params{Lambda: lambda, FaultRate: fr},
	}
	n := node.MustNew(1, geo.Point{}, node.Level1, &cfg, rng.New(1))
	src := rng.New(2)

	const events = 200000
	lying := 0
	for i := 0; i < events; i++ {
		wasLying := n.Lying()
		if wasLying {
			lying++
		}
		errRate := errHonest
		if wasLying {
			errRate = errLying
		}
		n.ObserveVerdict(!src.Bernoulli(errRate))
	}
	measured := float64(lying) / events
	if math.Abs(measured-model.Duty) > 0.03 {
		t.Fatalf("measured duty %v vs model %v", measured, model.Duty)
	}
}

func TestTable2Level1Cycle(t *testing.T) {
	c := Table2Level1Cycle()
	if c.Duty <= 0 || c.Duty >= 0.5 {
		t.Fatalf("Table 2 level-1 duty = %v, expected a minority of the time", c.Duty)
	}
	// Effective error rate lands well under the natural-rate-compensated
	// f_r=0.1's tolerance ceiling... no: it should land well under the
	// lying-phase rate; the point is the cap.
	if c.EffectiveErrRate >= 0.62/2 {
		t.Fatalf("effective error rate %v not meaningfully capped", c.EffectiveErrRate)
	}
}
