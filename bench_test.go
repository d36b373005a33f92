package tibfit_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// benchmark regenerates its artifact end to end (workload generation,
// simulation, aggregation, metric folding); reported ns/op is the cost of
// one full regeneration at the benchmark's (reduced) event count. Run
//
//	go test -bench=. -benchmem
//
// for the full set, or -bench=BenchmarkFigure4 for one figure. The CLI
// tools regenerate the same artifacts at full scale.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tibfit/tibfit"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/shadow"
)

// benchOpts keeps per-iteration work bounded while preserving dynamics.
var benchOpts = tibfit.FigureOptions{Runs: 1, Events: 100, Seed: 1}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := tibfit.GenerateFigure(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// BenchmarkTable1Exp1 runs one binary-event simulation at Table 1's exact
// parameters (10 nodes, 100 events, λ=0.1, 50% missed alarms).
func BenchmarkTable1Exp1(b *testing.B) {
	cfg := tibfit.DefaultExp1()
	cfg.FaultyFraction = 0.5
	for i := 0; i < b.N; i++ {
		if _, err := tibfit.RunExp1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Exp2 runs one location-determination simulation at Table
// 2's exact parameters (100 nodes, 100×100 grid, λ=0.25, f_r=0.1).
func BenchmarkTable2Exp2(b *testing.B) {
	cfg := tibfit.DefaultExp2()
	cfg.Events = 100
	for i := 0; i < b.N; i++ {
		if _, err := tibfit.RunExp2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 2-3: experiment 1 (binary events).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, "figure2") }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "figure3") }

// Figures 4-7: experiment 2 (location determination).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "figure4") }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "figure5") }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "figure6") }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "figure7") }

// BenchmarkFigure4Parallel times one multi-cell figure at campaign
// worker counts {1, 2, GOMAXPROCS}, deduplicated. The 2-worker case runs
// even on a single-core host, where it prices the pool's coordination
// overhead. Output is byte-identical at every width (asserted by the
// experiment package's tests); this measures wall clock only.
func BenchmarkFigure4Parallel(b *testing.B) {
	workers := []int{1}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if w > workers[len(workers)-1] {
			workers = append(workers, w)
		}
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := tibfit.FigureOptions{Runs: 2, Events: 200, Seed: 1, Parallel: w}
			for i := 0; i < b.N; i++ {
				if _, err := tibfit.GenerateFigure("figure4", opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Figures 8-9: experiment 3 (decaying network).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "figure8") }
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "figure9") }

// Figures 10-11: §5 closed forms.
func BenchmarkFigure10(b *testing.B)      { benchFigure(b, "figure10") }
func BenchmarkFigure11(b *testing.B)      { benchFigure(b, "figure11") }
func BenchmarkFigure11Roots(b *testing.B) { benchFigure(b, "figure11-roots") }

// BenchmarkAblationLinearTI quantifies §3's argument for the exponential
// penalty: the same 70%-compromised binary workload run with the linear
// trust model. Compare against BenchmarkAblationExponentialTI; the
// experiment integration tests assert the accuracy ordering.
func BenchmarkAblationLinearTI(b *testing.B) {
	benchTrustShape(b, true)
}

// BenchmarkAblationExponentialTI is the paper's model, for comparison.
func BenchmarkAblationExponentialTI(b *testing.B) {
	benchTrustShape(b, false)
}

func benchTrustShape(b *testing.B, linear bool) {
	b.Helper()
	cfg := tibfit.DefaultExp1()
	cfg.FaultyFraction = 0.7
	cfg.LinearTI = linear
	for i := 0; i < b.N; i++ {
		res, err := tibfit.RunExp1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Accuracy <= 0 {
			b.Fatal("degenerate accuracy")
		}
	}
}

// BenchmarkAblationLambda sweeps the λ ∈ {0.05 … 1.0} range of figure 11
// on the live simulation rather than the closed form.
func BenchmarkAblationLambda(b *testing.B) {
	lambdas := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	for i := 0; i < b.N; i++ {
		for _, l := range lambdas {
			cfg := tibfit.DefaultExp1()
			cfg.Lambda = l
			cfg.FaultyFraction = 0.7
			if _, err := tibfit.RunExp1(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationIsolation compares runs with node removal enabled
// (threshold 0.3, the reproduction default) and disabled.
func BenchmarkAblationIsolation(b *testing.B) {
	for _, threshold := range []float64{0, 0.3} {
		threshold := threshold
		name := "disabled"
		if threshold > 0 {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			cfg := tibfit.DefaultExp2()
			cfg.Events = 100
			cfg.FaultyFraction = 0.5
			cfg.RemovalThreshold = threshold
			for i := 0; i < b.N; i++ {
				if _, err := tibfit.RunExp2(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShadowCH measures the cost of running every decision
// through the §3.4 replicated shadow-CH panel versus a bare table.
func BenchmarkAblationShadowCH(b *testing.B) {
	reporters := []int{0, 1, 2, 3, 4, 5}
	silent := []int{6, 7, 8, 9}
	b.Run("bare", func(b *testing.B) {
		tab := core.MustNewTable(core.Params{Lambda: 0.25, FaultRate: 0.1})
		for i := 0; i < b.N; i++ {
			d := core.DecideBinary(tab, reporters, silent)
			core.Apply(tab, d)
		}
	})
	b.Run("panel", func(b *testing.B) {
		panel, err := shadow.NewPanel(core.Params{Lambda: 0.25, FaultRate: 0.1}, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			panel.Decide(reporters, silent)
		}
	})
}

// BenchmarkAblationWeightedCentroid compares plain center-of-gravity
// event locations against the trust-weighted extension under heavy
// contamination (50% compromise, σ_faulty=6, removal disabled so bad
// reports keep flowing).
func BenchmarkAblationWeightedCentroid(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		weighted := weighted
		name := "plain"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			cfg := tibfit.DefaultExp2()
			cfg.Events = 100
			cfg.FaultyFraction = 0.5
			cfg.SigmaFaulty = 6
			cfg.RemovalThreshold = 0
			cfg.TrustWeightedCentroid = weighted
			for i := 0; i < b.N; i++ {
				if _, err := tibfit.RunExp2(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUnreliableCH runs the §3.4 scenario end to end: an
// honest cluster head, a 20%-lying head unprotected, and the same liar
// masked by the shadow panel.
func BenchmarkAblationUnreliableCH(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*tibfit.Exp1Config)
	}{
		{"honest", func(*tibfit.Exp1Config) {}},
		{"lying", func(c *tibfit.Exp1Config) { c.CHFlipProb = 0.2 }},
		{"lying+shadows", func(c *tibfit.Exp1Config) { c.CHFlipProb = 0.2; c.ShadowCH = true }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := tibfit.DefaultExp1()
			cfg.FaultyFraction = 0.3
			v.mutate(&cfg)
			for i := 0; i < b.N; i++ {
				if _, err := tibfit.RunExp1(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
