package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/trace"
)

// ByzantineConfig parameterizes the adversarial cluster-head campaign:
// the assembled binary network with a fraction of its serving heads
// compromised into Byzantine behaviours (decision inversion, report
// suppression, handoff poisoning, snapshot replay), measuring event
// detection and head-compromise detection with and without the base
// station's CH-trust quarantine machinery. This extends beyond the
// paper, whose fault model compromises sensing nodes but trusts heads
// (the shadow-CH scheme of §3.4 is its only head defense). Handoff
// attacks (poisoning, replay) fire at recluster uploads, so the campaign
// defaults Reclusters to 3 rather than resilience's 0.
type ByzantineConfig struct {
	GridWalk
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
}

// DefaultByzantine returns the campaign defaults: the integration-test
// network (36-node grid, 60×60 field) with 20% of heads compromised and
// the quarantine defense on.
func DefaultByzantine() ByzantineConfig {
	cfg := ByzantineConfig{GridWalk: defaultGridWalk(), ByzFraction: 0.2, Quarantine: true}
	cfg.Reclusters = 3
	return cfg
}

// Validate reports whether the configuration is usable.
func (c ByzantineConfig) Validate() error {
	if err := c.GridWalk.Validate(); err != nil {
		return err
	}
	if c.ByzFraction < 0 || c.ByzFraction > 1 {
		return fmt.Errorf("experiment: ByzFraction must be in [0,1], got %v", c.ByzFraction)
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
	results, err := runReplicates(cfg.Runs, cfg.Seed, func(seed int64) (ByzantineResult, error) {
		return runByzantineOnce(cfg, seed)
	})
	if err != nil {
		return ByzantineResult{}, err
	}
	return meanOf(results, func(r *ByzantineResult) []*float64 {
		return []*float64{&r.EventAccuracy, &r.DetectionAccuracy, &r.Byzantine, &r.Quarantined,
			&r.Escalations, &r.Rejected}
	}), nil
}

func runByzantineOnce(cfg ByzantineConfig, seed int64) (ByzantineResult, error) {
	// Liveness machinery stays on in both arms: the contrast this
	// campaign measures is the trust defense, not crash recovery.
	netCfg := cfg.netConfig(true)
	netCfg.CHQuarantine = cfg.Quarantine
	// Headship eligibility comes from the station's CH-trust quarantine,
	// not the sensing-trust veto: this whole-network binary assembly ages
	// honest out-of-range members' trust at every snapshot round (see
	// GridWalk.Reclusters), and with the default veto threshold a few
	// reclusters collapse the elections into one giant cluster.
	netCfg.Election.TIThreshold = 0
	// Keep clusters small enough to out-vote their own silent members:
	// the LEACH draws' lower tail otherwise hands the whole field to one
	// or two heads on some rounds (see leach.Config.MinHeads).
	netCfg.Election.MinHeads = int(float64(cfg.Nodes)*netCfg.Election.HeadFraction*2/3 + 0.5)

	run, err := cfg.run(seed, netCfg, func(net *network.Network) chaos.Config {
		byzHeads := int(cfg.ByzFraction*float64(len(net.Heads())) + 0.5)
		if cfg.ByzFraction > 0 && byzHeads == 0 {
			byzHeads = 1
		}
		return chaos.Config{ByzHeads: byzHeads, Behaviors: cfg.Behaviors}
	})
	if err != nil {
		return ByzantineResult{}, err
	}

	byz := run.net.Byzantine()
	quarantined := run.net.Station().QuarantinedHeads()
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
		EventAccuracy:     run.accuracy,
		DetectionAccuracy: detection,
		Byzantine:         float64(len(byz)),
		Quarantined:       float64(len(quarantined)),
		Escalations:       float64(run.tr.Count(trace.KindShadowDisagree)),
		Rejected:          float64(run.tr.Count(trace.KindSnapshotRejected)),
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
	return gridFigure(opts, metrics.Figure{
		ID:     "ext-byzantine-resilience",
		Title:  "Extension — Byzantine heads: accuracy and detection, quarantine off/on",
		XLabel: "% heads Byzantine",
		YLabel: "accuracy / detection %",
	}, labels, sweep, func(si, xi int) (float64, error) {
		cfg := DefaultByzantine()
		cfg.ByzFraction = sweep[xi]
		cfg.Quarantine = si > 0
		cfg.withFigure(opts)
		res, err := RunByzantine(cfg)
		if si == 2 {
			return res.DetectionAccuracy, err
		}
		return res.EventAccuracy, err
	})
}
