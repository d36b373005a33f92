package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/analysis"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/parallel"
	"github.com/tibfit/tibfit/internal/workload"
)

// Exp1Sweep is the paper's experiment 1 x-axis: 40-90% compromised.
var Exp1Sweep = []float64{0.40, 0.50, 0.60, 0.70, 0.80, 0.90}

// Exp2Sweep is the paper's experiment 2 x-axis: 10-58% compromised.
var Exp2Sweep = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.58}

// SigmaPair is one correct/faulty location-noise pairing from Table 2,
// labelled the way the paper's figure legends do ("W-Z").
type SigmaPair struct {
	Correct float64
	Faulty  float64
}

// Label renders the pairing in the paper's legend style.
func (p SigmaPair) Label() string { return fmt.Sprintf("%g-%g", p.Correct, p.Faulty) }

// Table2SigmaPairs are the pairings the paper's figures use.
var Table2SigmaPairs = []SigmaPair{
	{Correct: 1.6, Faulty: 4.25},
	{Correct: 2.0, Faulty: 6.0},
}

// FigureOptions tunes figure regeneration. The zero value uses the paper's
// parameters with a modest number of replicates. Each config type applies
// the options in its withFigure method. Scheme, Lambda and FaultRate
// reach experiment cells only: the grid-walk figures (ext-resilience,
// ext-byzantine-resilience) keep network.DefaultConfig's trust.
type FigureOptions struct {
	// Runs is the number of independent replicates per point (default 3).
	Runs int
	// Events overrides the per-run event count (default: Table 1's 100
	// for experiment 1; 500 for experiments 2-3).
	Events int
	// Seed is the base random seed (default 1).
	Seed int64
	// Parallel caps the campaign-level worker pool: how many figure
	// cells (independent simulated data points), sweep points, or
	// resilience-grid points run concurrently. 1 runs the campaign
	// sequentially on the calling goroutine, exactly as before the pool
	// existed; 0 (the default) uses one worker per core. Cells merge in
	// index order, so every setting produces byte-identical figures —
	// the knob trades wall-clock time only.
	Parallel int
	// Scheme overrides the decision scheme of the figures that do not
	// themselves compare schemes: 2, 3, 7 and ext-sweep-lambda. Empty
	// keeps TIBFIT. The scheme-comparison figures (4-6, 8, 9,
	// ext-collusion-guard, ext-scheme-comparison and ext-reliability,
	// whose model is TIBFIT's) pin their schemes regardless.
	Scheme string
	// Lambda, when positive, overrides the trust decay constant λ of every
	// experiment-1, -2 and -3 cell (figures 2-9, ext-reliability,
	// ext-collusion-guard, ext-scheme-comparison; ext-sweep-lambda sweeps
	// it). Zero keeps each experiment's default.
	Lambda float64
	// FaultRate, when positive, overrides the tolerated error rate f_r of
	// every experiment-2 and -3 cell (figures 4-9 and the ext- figures
	// built on them). Zero keeps the experiment default. Experiment 1 has
	// none: Table 1 sets f_r to the NER.
	FaultRate float64
}

func (o FigureOptions) withDefaults() FigureOptions {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// workers resolves the campaign pool width from the Parallel knob.
func (o FigureOptions) workers() int { return parallel.Workers(o.Parallel) }

// runCells fans a figure's independent cells out on the shared ordered
// work-pool and returns their results in cell order.
func runCells[T any](opts FigureOptions, n int, run func(i int) (T, error)) ([]T, error) {
	return parallel.Map(n, opts.workers(), run)
}

// gridFigure runs the common figure shape — len(labels) series sampled
// at the same x values, every (series, x) cell an independent simulation
// returning an accuracy in [0, 1] — on the campaign pool, and returns fig
// with the series in declaration order (cells merge by index, so the
// output is identical at any worker count). Axis values and accuracies
// are scaled to percent, as all these figures plot.
func gridFigure(opts FigureOptions, fig metrics.Figure, labels []string, xs []float64,
	cell func(series, xi int) (float64, error)) (metrics.Figure, error) {
	vals, err := runCells(opts, len(labels)*len(xs), func(i int) (float64, error) {
		return cell(i/len(xs), i%len(xs))
	})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig.Series = make([]metrics.Series, len(labels))
	for si, label := range labels {
		s := metrics.Series{Label: label}
		for xi, x := range xs {
			s.Add(x*100, vals[si*len(xs)+xi]*100)
		}
		fig.Series[si] = s
	}
	return fig, nil
}

// exp1Figure is gridFigure over Exp1Sweep with every cell an experiment-1
// run at the cell's compromised fraction: the defaults with the figure's
// options, set up by vary for the cell's series.
func exp1Figure(opts FigureOptions, fig metrics.Figure, labels []string,
	vary func(series int, cfg *Exp1Config)) (metrics.Figure, error) {
	return gridFigure(opts, fig, labels, Exp1Sweep, func(si, xi int) (float64, error) {
		cfg := DefaultExp1()
		cfg.FaultyFraction = Exp1Sweep[xi]
		cfg.withFigure(opts)
		vary(si, &cfg)
		res, err := RunExp1(cfg)
		return res.Accuracy, err
	})
}

// exp2Figure is exp1Figure for experiment 2, over Exp2Sweep.
// Scheme-comparison figures overwrite cfg.Scheme in vary, so the
// opts.Scheme override only reaches figures with a single free scheme.
func exp2Figure(opts FigureOptions, fig metrics.Figure, labels []string,
	vary func(series int, cfg *Exp2Config)) (metrics.Figure, error) {
	return gridFigure(opts, fig, labels, Exp2Sweep, func(si, xi int) (float64, error) {
		cfg := DefaultExp2()
		cfg.FaultyFraction = Exp2Sweep[xi]
		cfg.withFigure(opts)
		vary(si, &cfg)
		res, err := RunExp2(cfg)
		return res.Accuracy, err
	})
}

// Figure2 regenerates figure 2: binary-event accuracy vs percentage of
// faulty nodes, faulty nodes producing missed alarms only (50%), for
// correct-node NERs of 0, 1, and 5%.
func Figure2(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	ners := []float64{0, 0.01, 0.05}
	labels := make([]string, len(ners))
	for i, ner := range ners {
		labels[i] = fmt.Sprintf("NER %g%%", ner*100)
	}
	return exp1Figure(opts, metrics.Figure{
		ID:     "figure2",
		Title:  "Experiment 1 — missed alarms only (TIBFIT)",
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, labels, func(si int, cfg *Exp1Config) {
		cfg.NER = ners[si]
		cfg.FalseAlarmProb = 0
	})
}

// Figure3 regenerates figure 3: binary-event accuracy with faulty nodes
// producing both missed alarms (50%) and false alarms (0, 10, 75%); all
// correct nodes at 1% NER.
func Figure3(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	fas := []float64{0, 0.10, 0.75}
	labels := make([]string, len(fas))
	for i, fa := range fas {
		labels[i] = fmt.Sprintf("false alarms %g%%", fa*100)
	}
	return exp1Figure(opts, metrics.Figure{
		ID:     "figure3",
		Title:  "Experiment 1 — missed and false alarms (TIBFIT, NER 1%)",
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, labels, func(si int, cfg *Exp1Config) {
		cfg.NER = 0.01
		cfg.FalseAlarmProb = fas[si]
	})
}

// levelFigure regenerates one of figures 4-6: location-determination
// accuracy vs percentage faulty for one adversary level, both σ pairings,
// TIBFIT vs baseline. The legend format follows the paper:
// "Lvl M W-Z [TIBFIT or Baseline]".
func levelFigure(id string, level node.Kind, opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	type variant struct {
		pair   SigmaPair
		scheme string
	}
	var (
		variants []variant
		labels   []string
	)
	for _, pair := range Table2SigmaPairs {
		for _, scheme := range []string{SchemeTIBFIT, SchemeBaseline} {
			variants = append(variants, variant{pair, scheme})
			labels = append(labels, fmt.Sprintf("Lvl %d %s %s",
				int(level)-int(node.Level0), pair.Label(), schemeTitle(scheme)))
		}
	}
	return exp2Figure(opts, metrics.Figure{
		ID:     id,
		Title:  fmt.Sprintf("Experiment 2 — %v faulty nodes", level),
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, labels, func(si int, cfg *Exp2Config) {
		v := variants[si]
		cfg.Level = level
		cfg.SigmaCorrect = v.pair.Correct
		cfg.SigmaFaulty = v.pair.Faulty
		cfg.Scheme = v.scheme
	})
}

// Figure4 regenerates figure 4 (level-0 faulty nodes).
func Figure4(opts FigureOptions) (metrics.Figure, error) {
	return levelFigure("figure4", node.Level0, opts)
}

// Figure5 regenerates figure 5 (level-1 faulty nodes).
func Figure5(opts FigureOptions) (metrics.Figure, error) {
	return levelFigure("figure5", node.Level1, opts)
}

// Figure6 regenerates figure 6 (level-2, colluding faulty nodes).
func Figure6(opts FigureOptions) (metrics.Figure, error) {
	return levelFigure("figure6", node.Level2, opts)
}

// Figure7 regenerates figure 7: single vs concurrent events, level-0
// adversary, TIBFIT only.
func Figure7(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	return exp2Figure(opts, metrics.Figure{
		ID:     "figure7",
		Title:  "Experiment 2 — single vs concurrent events (TIBFIT, level 0)",
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, []string{"single", "concurrent"}, func(si int, cfg *Exp2Config) {
		cfg.Concurrent = si == 1
	})
}

// decayFigure regenerates figure 8 or 9: accuracy over time while the
// compromised fraction grows linearly (5% + 5% per 50 events, to 75%),
// for one faulty σ and both correct σ values, TIBFIT vs baseline. Each
// (σ_correct, scheme) curve is one cell on the campaign pool.
func decayFigure(id string, sigmaFaulty float64, opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	decay := workload.DefaultDecay()
	type variant struct {
		sigmaCorrect float64
		scheme       string
	}
	var variants []variant
	for _, sigmaCorrect := range []float64{1.6, 2.0} {
		for _, scheme := range []string{SchemeTIBFIT, SchemeBaseline} {
			variants = append(variants, variant{sigmaCorrect, scheme})
		}
	}
	windowed, err := runCells(opts, len(variants), func(i int) ([]float64, error) {
		v := variants[i]
		cfg := DefaultExp2()
		cfg.Events = decay.EventsPerStep * 15 // walks the schedule from 5% to 75%
		cfg.withFigure(opts)
		cfg.SigmaCorrect = v.sigmaCorrect
		cfg.SigmaFaulty = sigmaFaulty
		cfg.Scheme = v.scheme
		cfg.Decay = &decay
		res, err := RunExp2(cfg)
		if err != nil {
			return nil, err
		}
		return res.Windowed, nil
	})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     id,
		Title:  fmt.Sprintf("Experiment 3 — linear decay (σ_faulty=%g)", sigmaFaulty),
		XLabel: "event #",
		YLabel: "accuracy %",
	}
	for i, v := range variants {
		s := metrics.Series{Label: fmt.Sprintf("Lvl 0 %g-%g %s",
			v.sigmaCorrect, sigmaFaulty, schemeTitle(v.scheme))}
		for j, acc := range windowed[i] {
			// Window midpoints on the x-axis.
			s.Add(float64(j*decay.EventsPerStep+decay.EventsPerStep/2), acc*100)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure8 regenerates figure 8 (decay, σ_faulty = 4.25).
func Figure8(opts FigureOptions) (metrics.Figure, error) {
	return decayFigure("figure8", 4.25, opts)
}

// Figure9 regenerates figure 9 (decay, σ_faulty = 6.0).
func Figure9(opts FigureOptions) (metrics.Figure, error) {
	return decayFigure("figure9", 6.0, opts)
}

// Figure10 regenerates figure 10 from the closed form: expected accuracy
// of stateless majority voting vs percentage faulty, N=10, q=0.5,
// p ∈ {0.99, 0.95, 0.90, 0.85}.
func Figure10() metrics.Figure {
	fig := metrics.Figure{
		ID:     "figure10",
		Title:  "Analysis — baseline voting accuracy (N=10, q=0.5)",
		XLabel: "% faulty",
		YLabel: "P(success) %",
	}
	for _, p := range []float64{0.99, 0.95, 0.90, 0.85} {
		s := metrics.Series{Label: fmt.Sprintf("p=%.2f", p)}
		for _, pt := range analysis.Figure10Curve(10, p, 0.5) {
			s.Add(pt.FaultyPercent, pt.Success*100)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure11 regenerates figure 11: f(k) = e^{-kλ(N-1)} - 2e^{-kλ} + 1 for
// several λ; each curve's x-axis crossing is the minimum inter-compromise
// event count TIBFIT tolerates (N=10 as in experiment 1).
func Figure11() metrics.Figure {
	const n = 10
	fig := metrics.Figure{
		ID:     "figure11",
		Title:  fmt.Sprintf("Analysis — trust-decay transition function (N=%d)", n),
		XLabel: "k (events between compromises)",
		YLabel: "f(k)",
	}
	lambdas := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	// Sample each curve over its own range, wide enough to show the dip
	// below zero and the crossing back: 1.5× that λ's root.
	for _, lambda := range lambdas {
		kMax, err := analysis.MinInterCompromiseEvents(lambda, n)
		if err != nil {
			kMax = 1 / lambda
		}
		s := metrics.Series{Label: fmt.Sprintf("lambda=%g", lambda)}
		for _, pt := range analysis.Figure11Curve(lambda, n, 25, 1.5*kMax) {
			s.Add(pt.K, pt.F)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure11Roots tabulates the x-axis crossings of figure 11 together with
// the k_max = ln3/λ bound — the numbers §5 derives from the plot.
func Figure11Roots() metrics.Figure {
	const n = 10
	fig := metrics.Figure{
		ID:     "figure11-roots",
		Title:  fmt.Sprintf("Analysis — tolerated compromise spacing (N=%d)", n),
		XLabel: "lambda",
		YLabel: "events",
	}
	root := metrics.Series{Label: "k (root of f)"}
	kmax := metrics.Series{Label: "k_max = ln3/lambda"}
	for _, lambda := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		if k, err := analysis.MinInterCompromiseEvents(lambda, n); err == nil {
			root.Add(lambda, k)
		}
		kmax.Add(lambda, analysis.KMax(lambda))
	}
	fig.Series = append(fig.Series, root, kmax)
	return fig
}

func schemeTitle(scheme string) string { return decision.Title(scheme) }

// FigureSchemeComparison is the extended comparison figure: every
// registered decision scheme on the same level-0 location workload
// (figure 4's first σ pairing), one curve per scheme. The registry's
// sorted Names() fixes the series order, so the figure is reproducible
// regardless of registration order.
func FigureSchemeComparison(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	schemes := decision.Names()
	labels := make([]string, len(schemes))
	for i, s := range schemes {
		labels[i] = decision.Title(s)
	}
	return exp2Figure(opts, metrics.Figure{
		ID:     "ext-scheme-comparison",
		Title:  "Extension — decision schemes compared (level 0, σ 1.6-4.25)",
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, labels, func(si int, cfg *Exp2Config) { cfg.Scheme = schemes[si] })
}

// FigureReliability is an extension beyond the paper (its §7 future work:
// "predict system reliability"): the semi-analytic reliability model's
// per-event success probability at 70% binary compromise, plotted against
// the simulation's windowed accuracy and the §5 stateless baseline. It is
// a single simulation campaign, so only its replicates parallelize.
func FigureReliability(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	cfg := DefaultExp1()
	cfg.withFigure(opts)
	cfg.Scheme = SchemeTIBFIT // the model is TIBFIT's
	cfg.NER = 0.01
	cfg.FaultyFraction = 0.7
	cfg.Runs *= 3 // windowed curves need extra smoothing
	cfg.WindowEvents = 10
	res, err := RunExp1(cfg)
	if err != nil {
		return metrics.Figure{}, err
	}
	m := int(float64(cfg.Nodes)*cfg.FaultyFraction + 0.5)
	curve := analysis.ReliabilityCurve(cfg.Nodes, m, cfg.Events,
		1-cfg.NER, cfg.MissProb, cfg.Lambda, cfg.NER)

	fig := metrics.Figure{
		ID:     "ext-reliability",
		Title:  "Extension — reliability model vs simulation (70% compromised)",
		XLabel: "event #",
		YLabel: "P(success) %",
	}
	model := metrics.Series{Label: "model"}
	base := metrics.Series{Label: "stateless closed form"}
	for _, pt := range curve {
		model.Add(float64(pt.Event), pt.PSuccess*100)
		base.Add(float64(pt.Event), pt.PBaseline*100)
	}
	simulated := metrics.Series{Label: "simulation (10-event windows)"}
	for i, acc := range res.Windowed {
		simulated.Add(float64(i*cfg.WindowEvents+cfg.WindowEvents/2), acc*100)
	}
	fig.Series = []metrics.Series{model, simulated, base}
	return fig, nil
}

// FigureCollusionGuard is the second extension figure: figure 6's worst
// case (level-2 collusion, σ 1.6-4.25) rerun with the coincidence guard
// on and off, against the stateless baseline.
func FigureCollusionGuard(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	mutators := []func(*Exp2Config){
		func(c *Exp2Config) { c.Scheme = SchemeTIBFIT },
		func(c *Exp2Config) { c.Scheme, c.CoincidenceGuard = SchemeTIBFIT, 0.5 },
		func(c *Exp2Config) { c.Scheme = SchemeBaseline },
	}
	return exp2Figure(opts, metrics.Figure{
		ID:     "ext-collusion-guard",
		Title:  "Extension — coincidence guard vs level-2 collusion",
		XLabel: "% faulty",
		YLabel: "accuracy %",
	}, []string{"TIBFIT", "TIBFIT+guard", "Baseline"}, func(si int, cfg *Exp2Config) {
		cfg.Level = node.Level2
		mutators[si](cfg)
	})
}

// FigureSweepLambda is a registry-exposed instance of the §7 parameter
// exploration: the λ sweep at 50% level-0 compromise, showing the
// trade-off figure 11's discussion describes — larger λ decays faulty
// trust faster but wrongly isolates more honest nodes.
func FigureSweepLambda(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	base := DefaultExp2()
	base.FaultyFraction = 0.5
	base.withFigure(opts)
	fig, err := SweepExp2N("lambda", []float64{0.05, 0.1, 0.25, 0.5, 1.0}, base, opts.workers())
	if err != nil {
		return metrics.Figure{}, err
	}
	fig.ID = "ext-sweep-lambda"
	return fig, nil
}
