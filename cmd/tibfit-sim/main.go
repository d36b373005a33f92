// Command tibfit-sim runs the paper's simulation experiments and prints
// the corresponding figure data or a single experiment's summary.
//
// Usage:
//
//	tibfit-sim -fig figure4 [-runs 3] [-events 500] [-seed 1] [-format table|csv]
//	tibfit-sim -exp 1 -faulty 0.7 -ner 0.01 -fa 0.1 [-scheme tibfit]
//	tibfit-sim -exp 2 -faulty 0.5 -level 1 [-scheme dynamic-trust] [-concurrent]
//	tibfit-sim -exp 2 -scheme fuzzy -lambda 0.5 -fr 0.05
//	tibfit-sim -exp 3 [-scheme tibfit]
//	tibfit-sim -track -faulty 0.4 [-scheme baseline]
//	tibfit-sim -sweep lambda -values 0.05,0.1,0.25,0.5 -exp 2
//	tibfit-sim -exp 2 -trace        # stream protocol events to stderr
//	tibfit-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/experiment"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/stats"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tibfit-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tibfit-sim", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "", "figure to regenerate (see -list)")
		exp        = fs.Int("exp", 0, "experiment to run directly (1, 2, or 3)")
		list       = fs.Bool("list", false, "list reproducible figures")
		runs       = fs.Int("runs", 3, "independent replicates to average")
		events     = fs.Int("events", 0, "events per run (0 = experiment default)")
		seed       = fs.Int64("seed", 1, "base random seed")
		format     = fs.String("format", "table", "output format: table, csv, or plot")
		faulty     = fs.Float64("faulty", 0.5, "fraction of nodes compromised (exp 1-2 and -track)")
		ner        = fs.Float64("ner", 0.01, "correct-node natural error rate (exp 1)")
		fa         = fs.Float64("fa", 0, "faulty-node false-alarm probability (exp 1)")
		level      = fs.Int("level", 0, "adversary level 0-3 (exp 2-3 and -track; 3 = jittering coalition extension)")
		concurrent = fs.Bool("concurrent", false, "concurrent events (exp 2)")
		track      = fs.Bool("track", false, "run the mobile-target tracking scenario")
		sweep      = fs.String("sweep", "", "sweep one parameter of -exp 1 or 2 (see -sweep help)")
		values     = fs.String("values", "", "comma-separated sweep values")
		streamTr   = fs.Bool("trace", false, "stream protocol events to stderr (single run)")
		guard      = fs.Float64("guard", 0, "coincidence-guard distance (exp 2-3 extension; 0 = off)")
		par        = fs.Int("parallel", 0, "campaign workers: figure cells / sweep points run concurrently (1 = sequential, 0 = one per core); output is identical either way")
	)
	var sf cli.SchemeFlags
	sf.Register(fs, experiment.SchemeTIBFIT)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.Resolve()
	if err != nil {
		return err
	}

	var tr *trace.Trace
	if *streamTr {
		tr = trace.New().Stream(os.Stderr)
		*runs = 1
	}

	emit := func(f metrics.Figure) error {
		switch *format {
		case "table":
			fmt.Print(f.Table())
		case "csv":
			fmt.Print(f.CSV())
		case "plot":
			fmt.Print(f.Plot(64, 16))
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		return nil
	}

	switch {
	case *list:
		for _, id := range experiment.FigureIDs() {
			fmt.Println(id)
		}
		return nil

	case *fig != "":
		f, err := experiment.Generate(*fig, experiment.FigureOptions{
			Runs: *runs, Events: *events, Seed: *seed, Parallel: *par,
			Scheme: scheme, Lambda: sf.Lambda, FaultRate: sf.FaultRate,
		})
		if err != nil {
			return err
		}
		return emit(f)

	case *sweep == "help":
		fmt.Println("exp 1 parameters:", experiment.SweepParamsExp1())
		fmt.Println("exp 2 parameters:", experiment.SweepParamsExp2())
		return nil

	case *sweep != "":
		vals, err := parseValues(*values)
		if err != nil {
			return err
		}
		var f metrics.Figure
		switch *exp {
		case 1:
			base := experiment.DefaultExp1()
			base.FaultyFraction = *faulty
			base.Scheme = scheme
			sf.ApplyLambda(&base.Lambda)
			base.Runs = *runs
			base.Seed = *seed
			if *events > 0 {
				base.Events = *events
			}
			f, err = experiment.SweepExp1N(*sweep, vals, base, *par)
		case 0, 2:
			base := experiment.DefaultExp2()
			base.FaultyFraction = *faulty
			base.Scheme = scheme
			sf.ApplyLambda(&base.Lambda)
			sf.ApplyFaultRate(&base.FaultRate)
			base.Runs = *runs
			base.Seed = *seed
			if *events > 0 {
				base.Events = *events
			}
			f, err = experiment.SweepExp2N(*sweep, vals, base, *par)
		default:
			return fmt.Errorf("sweeps support -exp 1 or 2, got %d", *exp)
		}
		if err != nil {
			return err
		}
		return emit(f)

	case *track:
		cfg := experiment.DefaultTracking()
		cfg.FaultyFraction = *faulty
		cfg.Scheme = scheme
		sf.ApplyLambda(&cfg.Lambda)
		sf.ApplyFaultRate(&cfg.FaultRate)
		cfg.Runs = *runs
		cfg.Seed = *seed
		if *events > 0 {
			cfg.Emissions = *events
		}
		if cfg.Level, err = adversary(*level); err != nil {
			return err
		}
		res, err := experiment.RunTracking(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("tracking  scheme=%s level=%v faulty=%.0f%% emissions=%d\n",
			cfg.Scheme, cfg.Level, 100*cfg.FaultyFraction, cfg.Emissions)
		fmt.Printf("  localized        %.1f%%\n", 100*res.Accuracy)
		fmt.Printf("  mean track err   %.2f units\n", res.MeanTrackErr)
		fmt.Printf("  longest blind    %.0f emissions\n", res.MaxGap)
		fmt.Printf("  false positives  %.3f per emission\n", res.FalsePositiveRate)
		return nil

	case *exp == 1:
		cfg := experiment.DefaultExp1()
		cfg.Trace = tr
		cfg.FaultyFraction = *faulty
		cfg.NER = *ner
		cfg.FalseAlarmProb = *fa
		cfg.Scheme = scheme
		sf.ApplyLambda(&cfg.Lambda)
		cfg.Runs = *runs
		cfg.Seed = *seed
		if *events > 0 {
			cfg.Events = *events
		}
		res, err := experiment.RunExp1(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("experiment 1  scheme=%s faulty=%.0f%% ner=%.1f%% fa=%.0f%%\n",
			cfg.Scheme, 100*cfg.FaultyFraction, 100*cfg.NER, 100*cfg.FalseAlarmProb)
		fmt.Printf("  accuracy         %.1f%% %s\n", 100*res.Accuracy,
			accuracyCI(res.Accuracy, cfg.Events*cfg.Runs))
		fmt.Printf("  false positives  %.3f per event\n", res.FalsePositiveRate)
		fmt.Printf("  mean TI          correct=%.3f faulty=%.3f\n", res.MeanCorrectTI, res.MeanFaultyTI)
		return nil

	case *exp == 2 || *exp == 3:
		cfg := experiment.DefaultExp2()
		cfg.Trace = tr
		cfg.CoincidenceGuard = *guard
		cfg.FaultyFraction = *faulty
		cfg.Scheme = scheme
		sf.ApplyLambda(&cfg.Lambda)
		sf.ApplyFaultRate(&cfg.FaultRate)
		cfg.Concurrent = *concurrent
		cfg.Runs = *runs
		cfg.Seed = *seed
		if *events > 0 {
			cfg.Events = *events
		}
		if cfg.Level, err = adversary(*level); err != nil {
			return err
		}
		if *exp == 3 {
			decay := workload.DefaultDecay()
			cfg.Decay = &decay
			if *events == 0 {
				cfg.Events = decay.EventsPerStep * 15
			}
		}
		res, err := experiment.RunExp2(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("experiment %d  scheme=%s level=%v faulty=%.0f%% concurrent=%t\n",
			*exp, cfg.Scheme, cfg.Level, 100*cfg.FaultyFraction, cfg.Concurrent)
		fmt.Printf("  accuracy         %.1f%% %s\n", 100*res.Accuracy,
			accuracyCI(res.Accuracy, cfg.Events*cfg.Runs))
		fmt.Printf("  false positives  %.3f per event\n", res.FalsePositiveRate)
		fmt.Printf("  mean loc error   %.2f units\n", res.MeanLocErr)
		fmt.Printf("  mean TI          correct=%.3f faulty=%.3f\n", res.MeanCorrectTI, res.MeanFaultyTI)
		fmt.Printf("  isolated         faulty=%.1f correct=%.1f\n", res.IsolatedFaulty, res.IsolatedCorrect)
		if *exp == 3 {
			fmt.Printf("  windowed accuracy:")
			for _, acc := range res.Windowed {
				fmt.Printf(" %.0f%%", 100*acc)
			}
			fmt.Println()
		}
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig, -exp, or -list")
	}
}

// adversary maps the -level flag to the faulty node kind.
func adversary(level int) (node.Kind, error) {
	kinds := []node.Kind{node.Level0, node.Level1, node.Level2, node.Level3}
	if level < 0 || level >= len(kinds) {
		return node.Correct, fmt.Errorf("unknown adversary level %d", level)
	}
	return kinds[level], nil
}

// accuracyCI renders the Wilson 95% interval for a detection proportion
// observed over the given number of event trials.
func accuracyCI(rate float64, trials int) string {
	if trials <= 0 {
		return ""
	}
	successes := int(rate*float64(trials) + 0.5)
	if successes > trials {
		successes = trials
	}
	iv := stats.Wilson95(successes, trials)
	return fmt.Sprintf("(95%% CI %.1f-%.1f%%)", iv.Lo*100, iv.Hi*100)
}

// parseValues splits a comma-separated float list.
func parseValues(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("-sweep requires -values v1,v2,...")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
