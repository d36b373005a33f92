// Command tibfit-figures regenerates every figure of the paper in one run
// and writes the data files (one .txt table and one .csv per figure) into
// an output directory. This is the tool EXPERIMENTS.md is produced from.
//
// Usage:
//
//	tibfit-figures [-out figures/] [-runs 3] [-events 0] [-seed 1] [-only figure4,figure5]
//	               [-parallel N]   # campaign workers; output is byte-identical at any N
//	               [-scheme NAME] [-lambda L] [-fr F]  # override the free scheme/params
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tibfit/tibfit/internal/cli"
	"github.com/tibfit/tibfit/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tibfit-figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tibfit-figures", flag.ContinueOnError)
	var (
		out    = fs.String("out", "figures", "output directory")
		runs   = fs.Int("runs", 3, "independent replicates per data point")
		events = fs.Int("events", 0, "events per run (0 = experiment default)")
		seed   = fs.Int64("seed", 1, "base random seed")
		only   = fs.String("only", "", "comma-separated figure IDs (default: all)")
		par    = fs.Int("parallel", 0, "campaign workers: figure cells simulated concurrently (1 = sequential, 0 = one per core); output is identical either way")
	)
	var sf cli.SchemeFlags
	sf.Register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.Resolve()
	if err != nil {
		return err
	}

	ids := experiment.FigureIDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	opts := experiment.FigureOptions{
		Runs: *runs, Events: *events, Seed: *seed, Parallel: *par,
		Scheme: scheme, Lambda: sf.Lambda, FaultRate: sf.FaultRate,
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		fig, err := experiment.Generate(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		txt := filepath.Join(*out, id+".txt")
		if err := os.WriteFile(txt, []byte(fig.Table()), 0o644); err != nil {
			return err
		}
		csv := filepath.Join(*out, id+".csv")
		if err := os.WriteFile(csv, []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-16s %2d series  %6.2fs  -> %s, %s\n",
			id, len(fig.Series), time.Since(start).Seconds(), txt, csv)
	}
	return nil
}
