package experiment

import (
	"fmt"
	"strconv"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// ResilienceConfig parameterizes the crash-fault resilience campaign: the
// assembled network (binary mode, honest nodes) under chaos-injected
// crash-stop faults, measuring event detection with and without the
// heartbeat failover + reliable-report machinery. This is an extension
// beyond the paper, whose evaluation assumes heads and links stay up.
type ResilienceConfig struct {
	// Nodes is the grid size (default 36) over a Field×Field area.
	Nodes int
	Field float64
	// Events is the number of injected events, Period apart.
	Events int
	Period float64
	// Tout is the aggregation window.
	Tout float64
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
	// Reclusters spreads this many LEACH re-elections across the run.
	// The default is zero, which makes failover the only head recovery —
	// the contrast the campaign measures. (Nonzero values also age trust:
	// every snapshot round accumulates the honest-silence penalty this
	// whole-network binary mode charges out-of-range members, which is a
	// property of the assembly, not of the fault schedule.)
	Reclusters int
	// Seed and Runs follow the other experiments: replicate r runs with
	// Seed+r, and results average over Runs.
	Seed int64
	Runs int
}

// DefaultResilience returns the campaign defaults: the integration-test
// network (36-node grid, 60×60 field, Table-2-like radio) under a
// crash-heavy schedule.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		Nodes:         36,
		Field:         60,
		Events:        60,
		Period:        10,
		Tout:          1,
		CrashFraction: 0.2,
		HeadCrashes:   4,
		Failover:      true,
		Seed:          1,
		Runs:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c ResilienceConfig) Validate() error {
	switch {
	case c.Nodes < 4:
		return fmt.Errorf("experiment: resilience needs at least 4 nodes, got %d", c.Nodes)
	case c.Field <= 0:
		return fmt.Errorf("experiment: Field must be positive, got %v", c.Field)
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Period <= 4*c.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v)", c.Period, c.Tout)
	case c.Tout <= 0:
		return fmt.Errorf("experiment: Tout must be positive, got %v", c.Tout)
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
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	results, err := runReplicates(runs, func(r int) (ResilienceResult, error) {
		return runResilienceOnce(cfg, cfg.Seed+int64(r))
	})
	if err != nil {
		return ResilienceResult{}, err
	}
	var agg ResilienceResult
	for _, res := range results {
		agg.Accuracy += res.Accuracy
		agg.Crashes += res.Crashes
		agg.HeadCrashes += res.HeadCrashes
		agg.Failovers += res.Failovers
		agg.Orphaned += res.Orphaned
		agg.Retries += res.Retries
	}
	f := float64(runs)
	agg.Accuracy /= f
	agg.Crashes /= f
	agg.HeadCrashes /= f
	agg.Failovers /= f
	agg.Orphaned /= f
	agg.Retries /= f
	return agg, nil
}

func runResilienceOnce(cfg ResilienceConfig, seed int64) (ResilienceResult, error) {
	kernel := sim.New()
	root := rng.New(seed)
	tr := trace.New() // counting only; nothing retained

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0.005
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	netCfg := network.DefaultConfig()
	netCfg.Mode = network.ModeBinary
	netCfg.Tout = sim.Duration(cfg.Tout)
	if cfg.Failover {
		netCfg.HeartbeatPeriod = sim.Duration(cfg.Tout / 5)
		netCfg.HeartbeatMisses = 3
		netCfg.ReportRetries = 3
		netCfg.ReportBackoff = sim.Duration(cfg.Tout / 50)
	}

	// Honest population: this campaign isolates crash faults, so nobody
	// lies — every accuracy loss is the fault schedule's doing.
	nodeCfg := node.Config{
		MissProb:     0.25,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  netCfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        netCfg.Trust,
	}
	area := geo.NewRect(cfg.Field, cfg.Field)
	positions := workload.GridPlacement(area, cfg.Nodes)
	nodes := make([]*node.Node, len(positions))
	for i, p := range positions {
		n, err := node.New(i, p, node.Correct, &nodeCfg, root.Split("node-"+strconv.Itoa(i)))
		if err != nil {
			return ResilienceResult{}, err
		}
		n.AttachBattery(energy.NewBattery(1e7))
		nodes[i] = n
	}
	net, err := network.New(netCfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		return ResilienceResult{}, err
	}

	var engine *chaos.Engine
	if cfg.CrashFraction > 0 || cfg.HeadCrashes > 0 {
		csrc := root.Split("chaos")
		engine, err = chaos.New(chaos.Config{
			Horizon:       float64(cfg.Events) * cfg.Period,
			CrashFraction: cfg.CrashFraction,
			HeadCrashes:   cfg.HeadCrashes,
			// Crash-stop: victims never come back within the run.
		}, kernel, csrc, tr)
		if err != nil {
			return ResilienceResult{}, err
		}
		if err := engine.Arm(net, csrc); err != nil {
			return ResilienceResult{}, err
		}
	}

	// Inject events on a grid walk; spread the reclusterings between them.
	for i := 0; i < cfg.Events; i++ {
		i := i
		loc := geo.Point{
			X: cfg.Field/4 + float64(i%4)*cfg.Field/6,
			Y: cfg.Field/4 + float64(i/4%4)*cfg.Field/6,
		}
		at := sim.Time(float64(i+1) * cfg.Period)
		if _, err := kernel.At(at, func() { net.InjectEvent(i, loc) }); err != nil {
			return ResilienceResult{}, err
		}
	}
	if cfg.Reclusters > 0 {
		every := cfg.Events / (cfg.Reclusters + 1)
		if every < 1 {
			every = 1
		}
		for r := 1; r <= cfg.Reclusters; r++ {
			at := sim.Time((float64(r*every) + 0.5) * cfg.Period)
			if _, err := kernel.At(at, func() { _ = net.Recluster() }); err != nil {
				return ResilienceResult{}, err
			}
		}
	}
	kernel.RunAll()

	// Post-hoc ground-truth matching: an event counts as detected if any
	// cluster declared an occurrence within one period of its injection
	// (binary declarations carry head positions, so matching is by time).
	declared := net.Declared()
	detected := 0
	for i := 0; i < cfg.Events; i++ {
		at := float64(i+1) * cfg.Period
		for _, d := range declared {
			if float64(d.Time) >= at && float64(d.Time) < at+cfg.Period {
				detected++
				break
			}
		}
	}
	res := ResilienceResult{
		Accuracy:  float64(detected) / float64(cfg.Events),
		Failovers: float64(tr.Count(trace.KindCHFailover)),
		Orphaned:  float64(tr.Count(trace.KindClusterOrphaned)),
		Retries:   float64(tr.Count(trace.KindReportRetry)),
	}
	if engine != nil {
		st := engine.Stats()
		res.Crashes = float64(st.Crashes)
		res.HeadCrashes = float64(st.HeadCrashes)
	}
	return res, nil
}

// FigureResilience regenerates the extension figure "ext-resilience":
// binary detection accuracy vs crashed-node fraction under a fixed number
// of serving-head crashes, with the failover machinery off and on. Every
// (failover, crash-fraction) grid point is an independent campaign, so
// the grid fans out on the campaign pool.
func FigureResilience(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	sweep := []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}
	failovers := []bool{false, true}
	labels := []string{"no failover", "failover + retries"}
	series, err := gridFigure(opts, labels, sweep, func(si, xi int) (float64, error) {
		cfg := DefaultResilience()
		cfg.CrashFraction = sweep[xi]
		cfg.Failover = failovers[si]
		cfg.Runs = opts.Runs
		cfg.Seed = opts.Seed
		if opts.Events > 0 {
			cfg.Events = opts.Events
		}
		res, err := RunResilience(cfg)
		if err != nil {
			return 0, err
		}
		return res.Accuracy, nil
	})
	if err != nil {
		return metrics.Figure{}, err
	}
	return metrics.Figure{
		ID:     "ext-resilience",
		Title:  "Extension — crash faults: accuracy vs crash rate, failover off/on",
		XLabel: "% nodes crashed",
		YLabel: "detection %",
		Series: series,
	}, nil
}
