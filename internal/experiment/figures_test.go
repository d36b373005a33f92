package experiment

import (
	"strings"
	"testing"
)

// quickOpts keeps figure regeneration fast in tests.
func quickOpts() FigureOptions {
	return FigureOptions{Runs: 1, Events: 80, Seed: 1}
}

func TestFigureRegistryComplete(t *testing.T) {
	want := []string{
		"ext-byzantine-resilience",
		"ext-collusion-guard", "ext-reliability", "ext-resilience",
		"ext-scheme-comparison", "ext-sweep-lambda",
		"figure10", "figure11", "figure11-roots", "figure2", "figure3",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
	}
	got := FigureIDs()
	if len(got) != len(want) {
		t.Fatalf("FigureIDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FigureIDs = %v, want %v", got, want)
		}
	}
}

func TestGenerateUnknownFigure(t *testing.T) {
	if _, err := Generate("figure99", FigureOptions{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigure2Structure(t *testing.T) {
	fig, err := Figure2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "figure2" || len(fig.Series) != 3 {
		t.Fatalf("figure = %s with %d series", fig.ID, len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(Exp1Sweep) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		// Low-compromise accuracy is high for every NER setting.
		if s.Points[0].Y < 90 {
			t.Fatalf("series %q accuracy at 40%% = %v", s.Label, s.Points[0].Y)
		}
	}
}

func TestFigure3Structure(t *testing.T) {
	fig, err := Figure3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series", len(fig.Series))
	}
	labels := []string{"false alarms 0%", "false alarms 10%", "false alarms 75%"}
	for i, s := range fig.Series {
		if s.Label != labels[i] {
			t.Fatalf("label = %q, want %q", s.Label, labels[i])
		}
	}
}

func TestFigure10Values(t *testing.T) {
	fig := Figure10()
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	// p=0.99 curve starts at ~100% with no faulty nodes.
	s := fig.Series[0]
	if s.Label != "p=0.99" || s.Points[0].Y < 99 {
		t.Fatalf("first series %q starts at %v", s.Label, s.Points[0].Y)
	}
}

func TestFigure11RootsOrdering(t *testing.T) {
	fig := Figure11Roots()
	roots, ok := fig.Lookup("k (root of f)")
	if !ok || len(roots.Points) == 0 {
		t.Fatal("missing roots series")
	}
	for i := 1; i < len(roots.Points); i++ {
		if roots.Points[i].Y >= roots.Points[i-1].Y {
			t.Fatalf("root not decreasing with λ: %v", roots.Points)
		}
	}
	kmax, ok := fig.Lookup("k_max = ln3/lambda")
	if !ok {
		t.Fatal("missing k_max series")
	}
	// k_max·λ = ln 3 ≈ 1.10 while the steady-state root has k·λ ≈ ln 2
	// for N=10, so the last-transition bound sits above the root.
	for i, p := range kmax.Points {
		if p.Y <= roots.Points[i].Y {
			t.Fatalf("k_max %v not above root %v at λ=%v", p.Y, roots.Points[i].Y, p.X)
		}
	}
}

func TestFigure11CurvesCrossZero(t *testing.T) {
	fig := Figure11()
	for _, s := range fig.Series {
		neg, pos := false, false
		for _, p := range s.Points {
			if p.Y < 0 {
				neg = true
			}
			if p.Y > 0 && p.X > 0 {
				pos = true
			}
		}
		if !neg || !pos {
			t.Fatalf("series %q does not cross zero", s.Label)
		}
	}
}

func TestSigmaPairLabel(t *testing.T) {
	p := SigmaPair{Correct: 1.6, Faulty: 4.25}
	if p.Label() != "1.6-4.25" {
		t.Fatalf("Label = %q", p.Label())
	}
}

func TestSchemeTitle(t *testing.T) {
	if schemeTitle(SchemeTIBFIT) != "TIBFIT" || schemeTitle(SchemeBaseline) != "Baseline" {
		t.Fatal("schemeTitle wrong")
	}
}

func TestLevelFigureLegendFormat(t *testing.T) {
	// The paper's legend format is "Lvl M W-Z [TIBFIT or Baseline]".
	opts := FigureOptions{Runs: 1, Events: 30, Seed: 1}
	fig, err := Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	if !strings.HasPrefix(fig.Series[0].Label, "Lvl 0 1.6-4.25") {
		t.Fatalf("legend = %q", fig.Series[0].Label)
	}
}

// TestFigureOptionOverrides checks that λ, f_r and the scheme reach every
// experiment cell they name, and that a scheme-comparison figure keeps
// its schemes when one is forced.
func TestFigureOptionOverrides(t *testing.T) {
	tests := []struct {
		id     string
		set    func(*FigureOptions)
		differ bool
	}{
		{"figure8", func(o *FigureOptions) { o.Lambda = 1 }, true},
		{"ext-reliability", func(o *FigureOptions) { o.Lambda = 1 }, true},
		{"ext-sweep-lambda", func(o *FigureOptions) { o.FaultRate = 0.3 }, true},
		{"ext-sweep-lambda", func(o *FigureOptions) { o.Scheme = SchemeBaseline }, true},
		{"ext-collusion-guard", func(o *FigureOptions) { o.Scheme = SchemeBaseline }, false},
	}
	for _, tt := range tests {
		opts := FigureOptions{Runs: 1, Events: 200, Seed: 1}
		plain, err := Generate(tt.id, opts)
		if err != nil {
			t.Fatal(err)
		}
		tt.set(&opts)
		set, err := Generate(tt.id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if differ := plain.CSV() != set.CSV(); differ != tt.differ {
			t.Errorf("%s with %+v: output changed = %t, want %t", tt.id, opts, differ, tt.differ)
		}
	}
}
