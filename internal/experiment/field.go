package experiment

import (
	"fmt"
	"math"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/network"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// FieldConfig parameterizes the field-scale campaign: a uniform random
// population of honest sensing nodes over an area that grows with the
// population (constant density), organized into a target number of LEACH
// clusters, with location-mode events injected across the field. The
// campaign exists to exercise the O(neighborhood) spatial paths — grid
// affiliation, grid event injection, sparse trust state, member-filtered
// snapshots — at populations far beyond the paper's 36-node grids; its
// accuracy numbers are a sanity check, not a paper figure.
type FieldConfig struct {
	// Nodes is the population size.
	Nodes int
	// Clusters is the target cluster count (the election's MinHeads floor
	// and head fraction). Zero defaults to Nodes/100.
	Clusters int
	// Events is the number of injected events, each at a fresh uniform
	// location, spaced 5·Tout apart.
	Events int
	// Spacing is the average node spacing; the field side is
	// Spacing·√Nodes, keeping density constant as the population grows.
	// Zero defaults to 10 (the 36-node/60×60 integration density).
	Spacing float64
	// Tout is the aggregation window (default 1).
	Tout float64
	// Seed seeds the run's deterministic randomness.
	Seed int64
}

// DefaultField returns a quick smoke-scale campaign.
func DefaultField() FieldConfig {
	return FieldConfig{Nodes: 2500, Events: 10, Seed: 1}
}

// withDefaults fills the derived zero-value knobs.
func (c FieldConfig) withDefaults() FieldConfig {
	if c.Clusters == 0 {
		c.Clusters = c.Nodes / 100
		if c.Clusters < 1 {
			c.Clusters = 1
		}
	}
	if c.Spacing == 0 { //lint:allow floateq zero-value default sentinel, never computed
		c.Spacing = 10
	}
	if c.Tout == 0 { //lint:allow floateq zero-value default sentinel, never computed
		c.Tout = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c FieldConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Nodes < 4:
		return fmt.Errorf("experiment: field needs at least 4 nodes, got %d", c.Nodes)
	case c.Clusters < 1 || c.Clusters > c.Nodes:
		return fmt.Errorf("experiment: Clusters must be in [1, Nodes], got %d", c.Clusters)
	case c.Events <= 0:
		return fmt.Errorf("experiment: Events must be positive, got %d", c.Events)
	case c.Spacing <= 0:
		return fmt.Errorf("experiment: Spacing must be positive, got %v", c.Spacing)
	case c.Tout <= 0:
		return fmt.Errorf("experiment: Tout must be positive, got %v", c.Tout)
	}
	return nil
}

// FieldResult reports one field-scale run.
type FieldResult struct {
	// Nodes and Heads are the population and the elected head count.
	Nodes int
	Heads int
	// Detected is the fraction of injected events some cluster declared
	// within RError·2 of the injection point after it fired.
	Detected float64
	// Declarations counts every event declaration made.
	Declarations int
}

// RunField executes one field-scale campaign.
func RunField(cfg FieldConfig) (FieldResult, error) {
	if err := cfg.Validate(); err != nil {
		return FieldResult{}, err
	}
	f, err := newField(cfg.withDefaults())
	if err != nil {
		return FieldResult{}, err
	}
	f.kernel.RunAll()

	detected := 0
	for i := range f.locs {
		if f.net.DetectedNear(f.locs[i], f.times[i], 2*f.rError) {
			detected++
		}
	}
	return FieldResult{
		Nodes:        cfg.Nodes,
		Heads:        len(f.net.Heads()),
		Detected:     float64(detected) / float64(cfg.Events),
		Declarations: len(f.net.Declared()),
	}, nil
}

// field is one field campaign after set-up: the population placed, the
// network elected and clustered, and every event scheduled on the
// kernel, with nothing run yet.
type field struct {
	kernel *sim.Kernel
	net    *network.Network
	locs   []geo.Point
	times  []sim.Time
	rError float64
}

// newField builds a validated, defaulted campaign up to the point where
// the kernel would start.
func newField(cfg FieldConfig) (*field, error) {
	kernel := sim.New()
	root := rng.New(cfg.Seed)
	tr := trace.New()

	channel := radio.NewChannel(radio.DefaultConfig(), kernel, root.Split("channel"))

	netCfg := network.DefaultConfig()
	netCfg.Tout = sim.Duration(cfg.Tout)
	netCfg.Election.HeadFraction = float64(cfg.Clusters) / float64(cfg.Nodes)
	netCfg.Election.MinHeads = cfg.Clusters
	netCfg.Election.TIThreshold = 0

	nodeCfg := node.Config{
		MissProb:     0.05,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  netCfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        netCfg.Trust,
	}
	side := cfg.Spacing * math.Sqrt(float64(cfg.Nodes))
	area := geo.NewRect(side, side)
	positions := workload.UniformPlacement(area, cfg.Nodes, root.Split("placement"))
	nodes, err := node.NewPopulation(&nodeCfg, positions, root)
	if err != nil {
		return nil, err
	}
	net, err := network.New(netCfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		return nil, err
	}

	f := &field{
		kernel: kernel,
		net:    net,
		locs:   make([]geo.Point, cfg.Events),
		times:  make([]sim.Time, cfg.Events),
		rError: netCfg.RError,
	}
	period := 5 * cfg.Tout
	esrc := root.Split("events")
	for i := 0; i < cfg.Events; i++ {
		i := i
		f.locs[i] = geo.Point{X: esrc.Uniform(0, side), Y: esrc.Uniform(0, side)}
		f.times[i] = sim.Time(float64(i+1) * period)
		if _, err := kernel.At(f.times[i], func() { net.InjectEvent(i, f.locs[i]) }); err != nil {
			return nil, err
		}
	}
	return f, nil
}
