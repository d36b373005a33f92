package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/trace"
)

// ResilienceConfig parameterizes the crash-fault resilience campaign: the
// assembled network (binary mode, honest nodes) under chaos-injected
// crash-stop faults, measuring event detection with and without the
// heartbeat failover + reliable-report machinery. This is an extension
// beyond the paper, whose evaluation assumes heads and links stay up.
// Its Reclusters default is zero, which makes failover the only head
// recovery — the contrast the campaign measures.
type ResilienceConfig struct {
	GridWalk
	// CrashFraction of nodes suffer a crash-stop fault at a random time
	// (they never recover within the run).
	CrashFraction float64
	// HeadCrashes is the number of serving-head crash injections — the
	// adversarial placement for the failover path.
	HeadCrashes int
	// Failover enables the resilience machinery: heartbeat liveness
	// detection with emergency re-election, plus ACK/backoff report
	// retransmission. Off reproduces the paper's implicit model, where a
	// dead head's cluster stays leaderless until the next recluster.
	Failover bool
}

// DefaultResilience returns the campaign defaults: the integration-test
// network (36-node grid, 60×60 field, Table-2-like radio) under a
// crash-heavy schedule.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		GridWalk:      defaultGridWalk(),
		CrashFraction: 0.2,
		HeadCrashes:   4,
		Failover:      true,
	}
}

// Validate reports whether the configuration is usable.
func (c ResilienceConfig) Validate() error {
	if err := c.GridWalk.Validate(); err != nil {
		return err
	}
	switch {
	case c.CrashFraction < 0 || c.CrashFraction > 1:
		return fmt.Errorf("experiment: CrashFraction must be in [0,1], got %v", c.CrashFraction)
	case c.HeadCrashes < 0:
		return fmt.Errorf("experiment: HeadCrashes must be non-negative, got %d", c.HeadCrashes)
	}
	return nil
}

// ResilienceResult reports a resilience run, averaged over replicates.
type ResilienceResult struct {
	// Accuracy is the fraction of injected events some cluster declared
	// within one event period.
	Accuracy float64
	// Crashes, HeadCrashes, Failovers, and Orphaned count the injected
	// faults and the recovery actions they triggered.
	Crashes     float64
	HeadCrashes float64
	Failovers   float64
	Orphaned    float64
	// Retries counts report retransmissions (zero without Failover).
	Retries float64
}

// RunResilience executes the resilience campaign.
func RunResilience(cfg ResilienceConfig) (ResilienceResult, error) {
	if err := cfg.Validate(); err != nil {
		return ResilienceResult{}, err
	}
	results, err := runReplicates(cfg.Runs, cfg.Seed, func(seed int64) (ResilienceResult, error) {
		return runResilienceOnce(cfg, seed)
	})
	if err != nil {
		return ResilienceResult{}, err
	}
	return meanOf(results, func(r *ResilienceResult) []*float64 {
		return []*float64{&r.Accuracy, &r.Crashes, &r.HeadCrashes, &r.Failovers, &r.Orphaned, &r.Retries}
	}), nil
}

func runResilienceOnce(cfg ResilienceConfig, seed int64) (ResilienceResult, error) {
	run, err := cfg.run(seed, cfg.netConfig(cfg.Failover), func(*network.Network) chaos.Config {
		// Crash-stop: victims never come back within the run.
		return chaos.Config{CrashFraction: cfg.CrashFraction, HeadCrashes: cfg.HeadCrashes}
	})
	if err != nil {
		return ResilienceResult{}, err
	}
	return ResilienceResult{
		Accuracy:    run.accuracy,
		Crashes:     float64(run.faults.Crashes),
		HeadCrashes: float64(run.faults.HeadCrashes),
		Failovers:   float64(run.tr.Count(trace.KindCHFailover)),
		Orphaned:    float64(run.tr.Count(trace.KindClusterOrphaned)),
		Retries:     float64(run.tr.Count(trace.KindReportRetry)),
	}, nil
}

// FigureResilience regenerates the extension figure "ext-resilience":
// binary detection accuracy vs crashed-node fraction under a fixed number
// of serving-head crashes, with the failover machinery off and on. Every
// (failover, crash-fraction) grid point is an independent campaign, so
// the grid fans out on the campaign pool.
func FigureResilience(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	sweep := []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}
	labels := []string{"no failover", "failover + retries"}
	return gridFigure(opts, metrics.Figure{
		ID:     "ext-resilience",
		Title:  "Extension — crash faults: accuracy vs crash rate, failover off/on",
		XLabel: "% nodes crashed",
		YLabel: "detection %",
	}, labels, sweep, func(si, xi int) (float64, error) {
		cfg := DefaultResilience()
		cfg.CrashFraction = sweep[xi]
		cfg.Failover = si == 1
		cfg.withFigure(opts)
		res, err := RunResilience(cfg)
		return res.Accuracy, err
	})
}
