package experiment

import (
	"testing"
)

func TestSweepExp1Lambda(t *testing.T) {
	base := DefaultExp1()
	base.Events = 60
	base.FaultyFraction = 0.6
	fig, err := SweepExp1N("lambda", []float64{0.05, 0.1, 0.25}, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "sweep-exp1-lambda" || len(fig.Series) != 3 {
		t.Fatalf("figure = %s, %d series", fig.ID, len(fig.Series))
	}
	acc, _ := fig.Lookup("accuracy %")
	if len(acc.Points) != 3 {
		t.Fatalf("accuracy points = %d", len(acc.Points))
	}
	// Larger λ decays faulty trust harder.
	ti, _ := fig.Lookup("mean faulty TI")
	if ti.Points[2].Y >= ti.Points[0].Y {
		t.Fatalf("λ=0.25 faulty TI %v not below λ=0.05's %v",
			ti.Points[2].Y, ti.Points[0].Y)
	}
}

func TestSweepExp1UnknownParam(t *testing.T) {
	if _, err := SweepExp1N("bogus", []float64{1}, DefaultExp1(), 0); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := SweepExp1N("lambda", nil, DefaultExp1(), 0); err == nil {
		t.Fatal("empty values accepted")
	}
}

func TestSweepExp2Removal(t *testing.T) {
	base := DefaultExp2()
	base.Events = 120
	base.FaultyFraction = 0.4
	fig, err := SweepExp2N("removal", []float64{0, 0.3}, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	iso, _ := fig.Lookup("isolated faulty")
	if iso.Points[0].Y != 0 {
		t.Fatalf("isolation happened with removal disabled: %v", iso.Points[0].Y)
	}
	if iso.Points[1].Y == 0 {
		t.Fatal("no isolation with removal enabled")
	}
}

func TestSweepExp2PropagatesRunErrors(t *testing.T) {
	base := DefaultExp2()
	base.Events = 0 // invalid, surfaces from RunExp2
	if _, err := SweepExp2N("lambda", []float64{0.25}, base, 0); err == nil {
		t.Fatal("run error swallowed")
	}
}

func TestSweepParamListsSorted(t *testing.T) {
	for _, params := range [][]string{SweepParamsExp1(), SweepParamsExp2()} {
		if len(params) == 0 {
			t.Fatal("no sweep parameters")
		}
		for i := 1; i < len(params); i++ {
			if params[i-1] >= params[i] {
				t.Fatalf("params not sorted: %v", params)
			}
		}
	}
}
