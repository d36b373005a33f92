package experiment

// Determinism regression: the whole evaluation rests on campaigns being
// pure functions of their seed. This runs full figure campaigns —
// multi-replicate, so the parallel fan-out in runReplicates is part of
// what is under test — twice with the same seed and asserts the
// serialized results are byte-identical. The lint suite (internal/lint)
// keeps nondeterminism sources out of the tree; this test catches
// whatever a static check cannot, such as scheduling-dependent
// aggregation or unsorted collection orders surfacing in output.

import (
	"testing"

	"github.com/tibfit/tibfit/internal/metrics"
)

// serializeFigure renders every byte-visible form of a figure.
func serializeFigure(f metrics.Figure) string {
	return f.CSV() + "\n" + f.Table() + "\n" + f.Plot(72, 20)
}

func TestCampaignRerunIsByteIdentical(t *testing.T) {
	// figure2 drives the binary-event exp1 path, figure8 the
	// location-determination exp2 path (clustering, aggregation
	// windows, trust-weighted centers). Runs: 3 forces the replicate
	// fan-out across goroutines.
	opts := FigureOptions{Runs: 3, Events: 60, Seed: 17}
	for _, id := range []string{"figure2", "figure8"} {
		first, err := Generate(id, opts)
		if err != nil {
			t.Fatalf("%s run 1: %v", id, err)
		}
		second, err := Generate(id, opts)
		if err != nil {
			t.Fatalf("%s run 2: %v", id, err)
		}
		a, b := serializeFigure(first), serializeFigure(second)
		if a != b {
			t.Errorf("%s: rerun with identical seed changed serialized output\nfirst:\n%s\nsecond:\n%s", id, a, b)
		}
	}
}

func TestCampaignDifferentSeedsDiffer(t *testing.T) {
	// Guard against the degenerate explanation for the test above: if
	// the seed were ignored, reruns would trivially match.
	a, err := Generate("figure2", FigureOptions{Runs: 2, Events: 60, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("figure2", FigureOptions{Runs: 2, Events: 60, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if serializeFigure(a) == serializeFigure(b) {
		t.Error("different seeds produced identical campaigns; seed is not reaching the simulation")
	}
}

func TestSweepRerunIsByteIdentical(t *testing.T) {
	// The sweep harness aggregates over parameter values on top of the
	// replicate fan-out; it must be just as reproducible.
	base := quickExp1(t)
	base.Runs = 3
	base.Seed = 23
	first, err := SweepExp1N("lambda", []float64{0.01, 0.1}, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SweepExp1N("lambda", []float64{0.01, 0.1}, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if serializeFigure(first) != serializeFigure(second) {
		t.Error("sweep rerun with identical seed changed serialized output")
	}
}
