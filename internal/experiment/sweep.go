package experiment

import (
	"fmt"
	"sort"

	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/parallel"
)

// The paper's future work asks to "further explore the impact of
// different system parameters on performance" (§7). The sweep harness
// does exactly that: vary one protocol parameter over a value list while
// holding an experiment config fixed, and emit a figure of accuracy (and
// end-of-run trust separation) against the parameter.
//
// Sweep points are independent simulations, so they fan out on the
// shared ordered work-pool (internal/parallel); results merge in value
// order, keeping the emitted figure byte-identical at any worker count.

// exp1Setters maps sweepable parameter names to Exp1Config mutations.
var exp1Setters = map[string]func(*Exp1Config, float64){
	"lambda":     func(c *Exp1Config, v float64) { c.Lambda = v },
	"ner":        func(c *Exp1Config, v float64) { c.NER = v },
	"missprob":   func(c *Exp1Config, v float64) { c.MissProb = v },
	"falsealarm": func(c *Exp1Config, v float64) { c.FalseAlarmProb = v },
	"faulty":     func(c *Exp1Config, v float64) { c.FaultyFraction = v },
	"tout":       func(c *Exp1Config, v float64) { c.Tout = v },
}

// exp2Setters maps sweepable parameter names to Exp2Config mutations.
var exp2Setters = map[string]func(*Exp2Config, float64){
	"lambda":       func(c *Exp2Config, v float64) { c.Lambda = v },
	"faultrate":    func(c *Exp2Config, v float64) { c.FaultRate = v },
	"removal":      func(c *Exp2Config, v float64) { c.RemovalThreshold = v },
	"sigmacorrect": func(c *Exp2Config, v float64) { c.SigmaCorrect = v },
	"sigmafaulty":  func(c *Exp2Config, v float64) { c.SigmaFaulty = v },
	"missprob":     func(c *Exp2Config, v float64) { c.MissProb = v },
	"faulty":       func(c *Exp2Config, v float64) { c.FaultyFraction = v },
	"rerror":       func(c *Exp2Config, v float64) { c.RError = v },
	"tout":         func(c *Exp2Config, v float64) { c.Tout = v },
}

// SweepParamsExp1 lists the parameter names SweepExp1N accepts, sorted.
func SweepParamsExp1() []string { return sortedKeys(exp1Setters) }

// SweepParamsExp2 lists the parameter names SweepExp2N accepts, sorted.
func SweepParamsExp2() []string { return sortedKeys(exp2Setters) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepPoints runs run once per value of the named parameter, set on a
// copy of base, on the campaign pool (parallel.Workers semantics), and
// returns the results in value order.
func sweepPoints[C, R any](exp string, setters map[string]func(*C, float64), param string,
	values []float64, base C, workers int, run func(C) (R, error)) ([]R, error) {
	set, ok := setters[param]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown %s sweep parameter %q (known: %v)",
			exp, param, sortedKeys(setters))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("experiment: sweep needs at least one value")
	}
	return parallel.Map(len(values), parallel.Workers(workers), func(i int) (R, error) {
		cfg := base
		set(&cfg, values[i])
		res, err := run(cfg)
		if err != nil {
			return res, fmt.Errorf("sweep %s=%v: %w", param, values[i], err)
		}
		return res, nil
	})
}

// SweepExp1N runs the binary experiment once per value of the named
// parameter and returns accuracy and trust-separation series. Points run
// on the campaign pool with the given worker count (parallel.Workers
// semantics: 1 = sequential on the calling goroutine, 0 or negative =
// one worker per core).
func SweepExp1N(param string, values []float64, base Exp1Config, workers int) (metrics.Figure, error) {
	results, err := sweepPoints("exp1", exp1Setters, param, values, base, workers, RunExp1)
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "sweep-exp1-" + param,
		Title:  fmt.Sprintf("Experiment 1 sweep over %s", param),
		XLabel: param,
		YLabel: "accuracy % / TI",
	}
	acc := metrics.Series{Label: "accuracy %"}
	faultyTI := metrics.Series{Label: "mean faulty TI"}
	correctTI := metrics.Series{Label: "mean correct TI"}
	for i, v := range values {
		acc.Add(v, results[i].Accuracy*100)
		faultyTI.Add(v, results[i].MeanFaultyTI)
		correctTI.Add(v, results[i].MeanCorrectTI)
	}
	fig.Series = []metrics.Series{acc, faultyTI, correctTI}
	return fig, nil
}

// SweepExp2N runs the location experiment once per value of the named
// parameter and returns accuracy, false-positive, and isolation series,
// on the campaign pool as SweepExp1N does.
func SweepExp2N(param string, values []float64, base Exp2Config, workers int) (metrics.Figure, error) {
	results, err := sweepPoints("exp2", exp2Setters, param, values, base, workers, RunExp2)
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "sweep-exp2-" + param,
		Title:  fmt.Sprintf("Experiment 2 sweep over %s", param),
		XLabel: param,
		YLabel: "accuracy % / count",
	}
	acc := metrics.Series{Label: "accuracy %"}
	fp := metrics.Series{Label: "false positives/event"}
	isoF := metrics.Series{Label: "isolated faulty"}
	isoC := metrics.Series{Label: "isolated correct"}
	for i, v := range values {
		acc.Add(v, results[i].Accuracy*100)
		fp.Add(v, results[i].FalsePositiveRate)
		isoF.Add(v, results[i].IsolatedFaulty)
		isoC.Add(v, results[i].IsolatedCorrect)
	}
	fig.Series = []metrics.Series{acc, fp, isoF, isoC}
	return fig, nil
}
