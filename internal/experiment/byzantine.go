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

// ByzantineConfig parameterizes the adversarial cluster-head campaign:
// the assembled binary network with a fraction of its serving heads
// compromised into Byzantine behaviours (decision inversion, report
// suppression, handoff poisoning, snapshot replay), measuring event
// detection and head-compromise detection with and without the base
// station's CH-trust quarantine machinery. This extends beyond the
// paper, whose fault model compromises sensing nodes but trusts heads
// (the shadow-CH scheme of §3.4 is its only head defense).
type ByzantineConfig struct {
	// Nodes is the grid size (default 36) over a Field×Field area.
	Nodes int
	Field float64
	// Events is the number of injected events, Period apart.
	Events int
	Period float64
	// Tout is the aggregation window.
	Tout float64
	// ByzFraction of the serving cluster heads are compromised at random
	// times across the run (rounded to the nearest whole head).
	ByzFraction float64
	// Behaviors restricts the adversarial repertoire; empty draws from
	// every registered behaviour.
	Behaviors []chaos.Behavior
	// Quarantine enables the defense: shadow-panel escalation, station
	// CH-trust scoring with automatic quarantine and trusted
	// re-election, and sealed (verified) trust handoffs. Off reproduces
	// the undefended assembly, where a lying head's conclusions and
	// uploads are taken at face value.
	Quarantine bool
	// Reclusters spreads this many LEACH re-elections across the run.
	// Handoff attacks (poisoning, replay) fire at recluster uploads, so
	// the campaign defaults this to 3 rather than resilience's 0.
	Reclusters int
	// Seed and Runs follow the other experiments: replicate r runs with
	// Seed+r, and results average over Runs.
	Seed int64
	Runs int
}

// DefaultByzantine returns the campaign defaults: the integration-test
// network (36-node grid, 60×60 field) with 20% of heads compromised and
// the quarantine defense on.
func DefaultByzantine() ByzantineConfig {
	return ByzantineConfig{
		Nodes:       36,
		Field:       60,
		Events:      60,
		Period:      10,
		Tout:        1,
		ByzFraction: 0.2,
		Quarantine:  true,
		Reclusters:  3,
		Seed:        1,
		Runs:        1,
	}
}

// Validate reports whether the configuration is usable.
func (c ByzantineConfig) Validate() error {
	switch {
	case c.Nodes < 4:
		return fmt.Errorf("experiment: byzantine needs at least 4 nodes, got %d", c.Nodes)
	case c.Field <= 0:
		return fmt.Errorf("experiment: Field must be positive, got %v", c.Field)
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Period <= 4*c.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v)", c.Period, c.Tout)
	case c.Tout <= 0:
		return fmt.Errorf("experiment: Tout must be positive, got %v", c.Tout)
	case c.ByzFraction < 0 || c.ByzFraction > 1:
		return fmt.Errorf("experiment: ByzFraction must be in [0,1], got %v", c.ByzFraction)
	case c.Reclusters < 0:
		return fmt.Errorf("experiment: Reclusters must be non-negative, got %d", c.Reclusters)
	}
	return nil
}

// ByzantineResult reports a Byzantine-head run, averaged over replicates.
type ByzantineResult struct {
	// EventAccuracy is the fraction of injected events some cluster
	// declared within one event period.
	EventAccuracy float64
	// DetectionAccuracy is the fraction of compromised heads the station
	// quarantined by the end of the run (1 when none were compromised).
	DetectionAccuracy float64
	// Byzantine counts the distinct heads compromised; Quarantined the
	// heads the station quarantined (detections plus any false
	// positives).
	Byzantine   float64
	Quarantined float64
	// Escalations counts shadow-panel disagreements; Rejected counts
	// sealed uploads the station refused.
	Escalations float64
	Rejected    float64
}

// RunByzantine executes the Byzantine-head campaign.
func RunByzantine(cfg ByzantineConfig) (ByzantineResult, error) {
	if err := cfg.Validate(); err != nil {
		return ByzantineResult{}, err
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	results, err := runReplicates(runs, func(r int) (ByzantineResult, error) {
		return runByzantineOnce(cfg, cfg.Seed+int64(r))
	})
	if err != nil {
		return ByzantineResult{}, err
	}
	var agg ByzantineResult
	for _, res := range results {
		agg.EventAccuracy += res.EventAccuracy
		agg.DetectionAccuracy += res.DetectionAccuracy
		agg.Byzantine += res.Byzantine
		agg.Quarantined += res.Quarantined
		agg.Escalations += res.Escalations
		agg.Rejected += res.Rejected
	}
	f := float64(runs)
	agg.EventAccuracy /= f
	agg.DetectionAccuracy /= f
	agg.Byzantine /= f
	agg.Quarantined /= f
	agg.Escalations /= f
	agg.Rejected /= f
	return agg, nil
}

func runByzantineOnce(cfg ByzantineConfig, seed int64) (ByzantineResult, error) {
	kernel := sim.New()
	root := rng.New(seed)
	tr := trace.New() // counting only; nothing retained

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0.005
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	netCfg := network.DefaultConfig()
	netCfg.Mode = network.ModeBinary
	netCfg.Tout = sim.Duration(cfg.Tout)
	netCfg.CHQuarantine = cfg.Quarantine
	// Headship eligibility comes from the station's CH-trust quarantine,
	// not the sensing-trust veto: this whole-network binary assembly ages
	// honest out-of-range members' trust at every snapshot round (see
	// ResilienceConfig.Reclusters), and with the default veto threshold a
	// few reclusters collapse the elections into one giant cluster.
	netCfg.Election.TIThreshold = 0
	// Keep clusters small enough to out-vote their own silent members:
	// the LEACH draws' lower tail otherwise hands the whole field to one
	// or two heads on some rounds (see leach.Config.MinHeads).
	netCfg.Election.MinHeads = int(float64(cfg.Nodes)*netCfg.Election.HeadFraction*2/3 + 0.5)
	// Liveness machinery stays on in both arms: the contrast this
	// campaign measures is the trust defense, not crash recovery.
	netCfg.HeartbeatPeriod = sim.Duration(cfg.Tout / 5)
	netCfg.HeartbeatMisses = 3
	netCfg.ReportRetries = 3
	netCfg.ReportBackoff = sim.Duration(cfg.Tout / 50)

	// Honest sensing population: every accuracy loss is the compromised
	// heads' doing.
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
			return ByzantineResult{}, err
		}
		n.AttachBattery(energy.NewBattery(1e7))
		nodes[i] = n
	}
	net, err := network.New(netCfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		return ByzantineResult{}, err
	}

	byzHeads := int(cfg.ByzFraction*float64(len(net.Heads())) + 0.5)
	if cfg.ByzFraction > 0 && byzHeads == 0 {
		byzHeads = 1
	}
	if byzHeads > 0 {
		csrc := root.Split("chaos")
		engine, err := chaos.New(chaos.Config{
			Horizon:   float64(cfg.Events) * cfg.Period,
			ByzHeads:  byzHeads,
			Behaviors: cfg.Behaviors,
		}, kernel, csrc, tr)
		if err != nil {
			return ByzantineResult{}, err
		}
		if err := engine.Arm(net, csrc); err != nil {
			return ByzantineResult{}, err
		}
	}

	// Inject events on the resilience campaign's grid walk; spread the
	// reclusterings (and with them the handoff attacks) between them.
	for i := 0; i < cfg.Events; i++ {
		i := i
		loc := geo.Point{
			X: cfg.Field/4 + float64(i%4)*cfg.Field/6,
			Y: cfg.Field/4 + float64(i/4%4)*cfg.Field/6,
		}
		at := sim.Time(float64(i+1) * cfg.Period)
		if _, err := kernel.At(at, func() { net.InjectEvent(i, loc) }); err != nil {
			return ByzantineResult{}, err
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
				return ByzantineResult{}, err
			}
		}
	}
	kernel.RunAll()

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

	byz := net.Byzantine()
	quarantined := net.Station().QuarantinedHeads()
	inQuarantine := make(map[int]bool, len(quarantined))
	for _, id := range quarantined {
		inQuarantine[id] = true
	}
	caught := 0
	for _, id := range byz {
		if inQuarantine[id] {
			caught++
		}
	}
	detection := 1.0
	if len(byz) > 0 {
		detection = float64(caught) / float64(len(byz))
	}
	return ByzantineResult{
		EventAccuracy:     float64(detected) / float64(cfg.Events),
		DetectionAccuracy: detection,
		Byzantine:         float64(len(byz)),
		Quarantined:       float64(len(quarantined)),
		Escalations:       float64(tr.Count(trace.KindShadowDisagree)),
		Rejected:          float64(tr.Count(trace.KindSnapshotRejected)),
	}, nil
}

// FigureByzantineResilience regenerates the extension figure
// "ext-byzantine-resilience": event-decision accuracy vs fraction of
// Byzantine cluster heads with the quarantine defense off and on, plus
// the defense's head-compromise detection rate. Every (series, fraction)
// grid point is an independent campaign on the campaign pool.
func FigureByzantineResilience(opts FigureOptions) (metrics.Figure, error) {
	opts = opts.withDefaults()
	sweep := []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}
	labels := []string{"no quarantine", "quarantine", "quarantine detection"}
	series, err := gridFigure(opts, labels, sweep, func(si, xi int) (float64, error) {
		cfg := DefaultByzantine()
		cfg.ByzFraction = sweep[xi]
		cfg.Quarantine = si > 0
		cfg.Runs = opts.Runs
		cfg.Seed = opts.Seed
		if opts.Events > 0 {
			cfg.Events = opts.Events
		}
		res, err := RunByzantine(cfg)
		if err != nil {
			return 0, err
		}
		if si == 2 {
			return res.DetectionAccuracy, nil
		}
		return res.EventAccuracy, nil
	})
	if err != nil {
		return metrics.Figure{}, err
	}
	return metrics.Figure{
		ID:     "ext-byzantine-resilience",
		Title:  "Extension — Byzantine heads: accuracy and detection, quarantine off/on",
		XLabel: "% heads Byzantine",
		YLabel: "accuracy / detection %",
		Series: series,
	}, nil
}
