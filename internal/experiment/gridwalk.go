package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// GridWalk holds what the crash-fault and Byzantine-head campaigns
// share: the assembled binary network of honest nodes on a grid, events
// injected on a grid walk, and LEACH re-elections spread between them.
// Both campaigns embed it and add their fault plan and defense switch.
type GridWalk struct {
	// Nodes is the grid size (default 36) over a Field×Field area.
	Nodes int
	Field float64
	// Events is the number of injected events, Period apart.
	Events int
	Period float64
	// Tout is the aggregation window.
	Tout float64
	// Reclusters spreads this many LEACH re-elections across the run.
	// Every snapshot round also ages trust: this whole-network binary
	// mode charges out-of-range members the honest-silence penalty, a
	// property of the assembly, not of the fault schedule.
	Reclusters int
	// Seed and Runs follow the other experiments: replicate r runs with
	// Seed+r, and results average over Runs.
	Seed int64
	Runs int
}

// defaultGridWalk is the integration-test network: a 36-node grid on a
// 60×60 field, 60 events 10 apart, no reclusters.
func defaultGridWalk() GridWalk {
	return GridWalk{Nodes: 36, Field: 60, Events: 60, Period: 10, Tout: 1, Seed: 1, Runs: 1}
}

// Validate reports whether the shared settings are usable.
func (g GridWalk) Validate() error {
	switch {
	case g.Nodes < 4:
		return fmt.Errorf("experiment: a grid-walk campaign needs at least 4 nodes, got %d", g.Nodes)
	case g.Field <= 0:
		return fmt.Errorf("experiment: Field must be positive, got %v", g.Field)
	case g.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", g.Events)
	case g.Period <= 4*g.Tout:
		return fmt.Errorf("experiment: Period (%v) must exceed 4·Tout (%v)", g.Period, g.Tout)
	case g.Tout <= 0:
		return fmt.Errorf("experiment: Tout must be positive, got %v", g.Tout)
	case g.Reclusters < 0:
		return fmt.Errorf("experiment: Reclusters must be non-negative, got %d", g.Reclusters)
	}
	return nil
}

// withFigure applies a figure's replicate count, seed and event count.
func (g *GridWalk) withFigure(opts FigureOptions) {
	g.Runs = opts.Runs
	g.Seed = opts.Seed
	if opts.Events > 0 {
		g.Events = opts.Events
	}
}

// netConfig returns the binary network both campaigns assemble. failover
// turns on heartbeat liveness detection with emergency re-election and
// ACK/backoff report retransmission.
func (g GridWalk) netConfig(failover bool) network.Config {
	netCfg := network.DefaultConfig()
	netCfg.Mode = network.ModeBinary
	netCfg.Tout = sim.Duration(g.Tout)
	if failover {
		netCfg.HeartbeatPeriod = sim.Duration(g.Tout / 5)
		netCfg.HeartbeatMisses = 3
		netCfg.ReportRetries = 3
		netCfg.ReportBackoff = sim.Duration(g.Tout / 50)
	}
	return netCfg
}

// gridWalkRun is one replicate of a grid-walk campaign after its kernel
// has run.
type gridWalkRun struct {
	net *network.Network
	tr  *trace.Trace
	// faults counts the injected faults; zero when the plan asked for
	// none.
	faults chaos.Stats
	// accuracy is the fraction of injected events some cluster declared
	// within one event period.
	accuracy float64
}

// run executes one replicate on netCfg. The population is honest, so
// every accuracy loss is the fault plan's or the assembly's doing. plan
// sizes the chaos campaign from the built network; it is armed, with
// the run's horizon, only when it asks for faults.
func (g GridWalk) run(seed int64, netCfg network.Config, plan func(*network.Network) chaos.Config) (gridWalkRun, error) {
	kernel := sim.New()
	root := rng.New(seed)
	tr := trace.New() // counting only; nothing retained

	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0.005
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	nodeCfg := node.Config{
		MissProb:     0.25,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  netCfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        netCfg.Trust,
	}
	positions := workload.GridPlacement(geo.NewRect(g.Field, g.Field), g.Nodes)
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return gridWalkRun{}, err
	}
	for _, n := range nodes {
		n.AttachBattery(energy.NewBattery(1e7))
	}
	net, err := network.New(netCfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		return gridWalkRun{}, err
	}

	var engine *chaos.Engine
	chaosCfg := plan(net)
	chaosCfg.Horizon = float64(g.Events) * g.Period
	if chaosCfg.Enabled() {
		csrc := root.Split("chaos")
		if engine, err = chaos.New(chaosCfg, kernel, csrc, tr); err != nil {
			return gridWalkRun{}, err
		}
		if err := engine.Arm(net, csrc); err != nil {
			return gridWalkRun{}, err
		}
	}

	// Inject events on a grid walk; spread the reclusterings (and with
	// them any handoff attacks) between them.
	for i := 0; i < g.Events; i++ {
		loc := geo.Point{
			X: g.Field/4 + float64(i%4)*g.Field/6,
			Y: g.Field/4 + float64(i/4%4)*g.Field/6,
		}
		at := sim.Time(float64(i+1) * g.Period)
		if _, err := kernel.At(at, func() { net.InjectEvent(i, loc) }); err != nil {
			return gridWalkRun{}, err
		}
	}
	if g.Reclusters > 0 {
		every := max(g.Events/(g.Reclusters+1), 1)
		for r := 1; r <= g.Reclusters; r++ {
			at := sim.Time((float64(r*every) + 0.5) * g.Period)
			if _, err := kernel.At(at, func() { _ = net.Recluster() }); err != nil {
				return gridWalkRun{}, err
			}
		}
	}
	kernel.RunAll()

	// Post-hoc ground-truth matching: an event counts as detected if any
	// cluster declared an occurrence within one period of its injection
	// (binary declarations carry head positions, so matching is by time).
	declared := net.Declared()
	detected := 0
	for i := 0; i < g.Events; i++ {
		at := float64(i+1) * g.Period
		for _, d := range declared {
			if float64(d.Time) >= at && float64(d.Time) < at+g.Period {
				detected++
				break
			}
		}
	}
	res := gridWalkRun{net: net, tr: tr, accuracy: float64(detected) / float64(g.Events)}
	if engine != nil {
		res.faults = engine.Stats()
	}
	return res, nil
}
