package network

import (
	"strings"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/workload"
)

// harness builds a 36-node grid network over a 60×60 field.
type harness struct {
	net    *Network
	kernel *sim.Kernel
	nodes  []*node.Node
}

func newHarness(t *testing.T, cfg Config, faulty int, seed int64) *harness {
	t.Helper()
	kernel := sim.New()
	root := rng.New(seed)
	chCfg := radio.DefaultConfig()
	chCfg.DropProb = 0.005
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	nodeCfg := node.Config{
		MissProb:     0.25,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  cfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        cfg.Trust,
	}
	area := geo.NewRect(60, 60)
	positions := workload.GridPlacement(area, 36)
	nodes := make([]*node.Node, len(positions))
	for i, p := range positions {
		kind := node.Correct
		if i < faulty {
			kind = node.Level0
		}
		nodes[i] = node.MustNew(i, p, kind, &nodeCfg, root.Split(string(rune('a'+i))))
		nodes[i].AttachBattery(energy.NewBattery(1e7))
	}
	net, err := New(cfg, kernel, channel, nodes, root.Split("net"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, kernel: kernel, nodes: nodes}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SenseRadius = 0 },
		func(c *Config) { c.Tout = 0 },
		func(c *Config) { c.Scheme = "magic" },
		func(c *Config) { c.Trust.Lambda = 0 },
		func(c *Config) { c.Election.HeadFraction = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestNetworkFormsClusters(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 0, 1)
	heads := h.net.Heads()
	if len(heads) == 0 {
		t.Fatal("no heads")
	}
	// Every node is either a head or affiliated with one.
	for _, nd := range h.nodes {
		if _, ok := h.net.HeadOf(nd.ID()); !ok {
			isHead := false
			for _, head := range heads {
				if head == nd.ID() {
					isHead = true
				}
			}
			if !isHead {
				t.Fatalf("node %d unaffiliated", nd.ID())
			}
		}
	}
}

func TestNetworkDetectsEvents(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 0, 2)
	detected := 0
	const events = 40
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 10 + float64(i%5)*10, Y: 10 + float64(i/5%5)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
		_, _ = h.kernel.At(at+5, func() {
			if h.net.DetectedNear(loc, at, 5) {
				detected++
			}
		})
	}
	h.kernel.RunAll()
	// Clusters are smaller than the full event neighborhood, so a few
	// head-local quorums can fail; most events must still be detected.
	if rate := float64(detected) / events; rate < 0.8 {
		t.Fatalf("network detection rate = %v, want >= 0.8", rate)
	}
}

func TestNetworkSurvivesFaultyMinority(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 10, 3) // 10/36 faulty
	detected := 0
	const events = 40
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 15 + float64(i%4)*10, Y: 15 + float64(i/4%4)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
		_, _ = h.kernel.At(at+5, func() {
			if h.net.DetectedNear(loc, at, 5) {
				detected++
			}
		})
	}
	h.kernel.RunAll()
	if rate := float64(detected) / events; rate < 0.7 {
		t.Fatalf("detection rate with faulty minority = %v", rate)
	}
}

func TestReclusterRotatesAndPersistsTrust(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 6, 4)
	// Burn some trust: run events so the faulty nodes get judged.
	for i := 0; i < 30; i++ {
		loc := geo.Point{X: 10 + float64(i%5)*10, Y: 10 + float64(i/5%3)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
	}
	h.kernel.RunAll()

	leaders := map[int]bool{}
	for _, head := range h.net.Heads() {
		leaders[head] = true
	}
	for round := 0; round < 8; round++ {
		if err := h.net.Recluster(); err != nil {
			t.Fatal(err)
		}
		for _, head := range h.net.Heads() {
			leaders[head] = true
		}
	}
	if len(leaders) < 4 {
		t.Fatalf("only %d distinct heads across 9 rounds", len(leaders))
	}
	// Trust survived the handoffs: at least one faulty node is known to
	// the base station with decayed trust.
	station := h.net.Station()
	decayed := 0
	for id := 0; id < 6; id++ {
		if station.TI(id) < 0.9 {
			decayed++
		}
	}
	if decayed == 0 {
		t.Fatal("no faulty trust persisted to the base station")
	}
}

func TestDistrustedNodesDoNotLead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Election.TIThreshold = 0.6
	h := newHarness(t, cfg, 12, 5)
	// Build trust history first.
	for i := 0; i < 40; i++ {
		loc := geo.Point{X: 10 + float64(i%5)*10, Y: 10 + float64(i/5%5)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
	}
	h.kernel.RunAll()

	station := h.net.Station()
	for round := 0; round < 10; round++ {
		if err := h.net.Recluster(); err != nil {
			t.Fatal(err)
		}
		for _, head := range h.net.Heads() {
			if !station.Eligible(head, cfg.Election.TIThreshold) {
				t.Fatalf("round %d: ineligible node %d (TI=%v) led",
					round, head, station.TI(head))
			}
		}
	}
}

func TestEnergyDrainsOnReporting(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 0, 6)
	before := h.nodes[0].Battery().Residual()
	for i := 0; i < 10; i++ {
		i := i
		_, _ = h.kernel.At(sim.Time(float64(i+1)*10), func() {
			h.net.InjectEvent(i, geo.Point{X: 5, Y: 5}) // node 0's corner
		})
	}
	h.kernel.RunAll()
	if h.nodes[0].Battery().Residual() >= before {
		t.Fatal("reporting drew no energy")
	}
}

func TestNewValidation(t *testing.T) {
	kernel := sim.New()
	ch := radio.NewChannel(radio.DefaultConfig(), kernel, rng.New(1))
	nd := node.MustNew(0, geo.Point{}, node.Correct,
		&node.Config{Trust: core.Params{Lambda: 1, FaultRate: 0}}, rng.New(2))
	if _, err := New(DefaultConfig(), nil, ch, []*node.Node{nd}, rng.New(3), nil); err == nil {
		t.Fatal("accepted nil kernel")
	}
	if _, err := New(DefaultConfig(), kernel, ch, nil, rng.New(3), nil); err == nil {
		t.Fatal("accepted empty nodes")
	}
	bad := DefaultConfig()
	bad.Scheme = "magic"
	if _, err := New(bad, kernel, ch, []*node.Node{nd}, rng.New(3), nil); err == nil {
		t.Fatal("accepted bad config")
	}
}

func TestMultihopNetworkDetectsEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Multihop = true
	kernel := sim.New()
	root := rng.New(7)
	chCfg := radio.DefaultConfig()
	chCfg.Range = 15 // grid spacing 10: only immediate neighbors in range
	chCfg.DropProb = 0.02
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))

	nodeCfg := node.Config{
		MissProb:     0.25,
		SigmaCorrect: 1.6,
		SigmaFaulty:  4.25,
		SenseRadius:  cfg.SenseRadius,
		LowerTI:      0.5,
		UpperTI:      0.8,
		Trust:        cfg.Trust,
	}
	area := geo.NewRect(60, 60)
	positions := workload.GridPlacement(area, 36)
	nodes := make([]*node.Node, len(positions))
	for i, p := range positions {
		nodes[i] = node.MustNew(i, p, node.Correct, &nodeCfg, root.Split(string(rune('a'+i))))
	}
	net, err := New(cfg, kernel, channel, nodes, root.Split("net"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Mesh() == nil {
		t.Fatal("multihop network has no mesh")
	}

	detected := 0
	const events = 30
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 15 + float64(i%4)*10, Y: 15 + float64(i/4%4)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = kernel.At(at, func() { net.InjectEvent(i, loc) })
		_, _ = kernel.At(at+5, func() {
			if net.DetectedNear(loc, at, 5) {
				detected++
			}
		})
	}
	kernel.RunAll()
	if rate := float64(detected) / events; rate < 0.7 {
		t.Fatalf("multihop detection rate = %v", rate)
	}
	delivered, _, _, hops := net.Mesh().Stats()
	if delivered == 0 {
		t.Fatal("no multihop deliveries recorded")
	}
	if hops <= delivered {
		t.Fatalf("hops (%d) not above deliveries (%d): nothing was multi-hop", hops, delivered)
	}
}

// TestNewRejectsSparseIDs pins the dense-ID contract the network's
// per-node slices rest on: node i must carry ID i, and the error names
// the first index that does not.
func TestNewRejectsSparseIDs(t *testing.T) {
	kernel := sim.New()
	ch := radio.NewChannel(radio.DefaultConfig(), kernel, rng.New(1))
	cfg := node.Config{Trust: DefaultConfig().Trust}
	nodes := []*node.Node{
		node.MustNew(0, geo.Point{}, node.Correct, &cfg, rng.New(2)),
		node.MustNew(7, geo.Point{X: 10}, node.Correct, &cfg, rng.New(3)),
		node.MustNew(2, geo.Point{X: 20}, node.Correct, &cfg, rng.New(4)),
	}
	_, err := New(DefaultConfig(), kernel, ch, nodes, rng.New(5), nil)
	if err == nil {
		t.Fatal("accepted a population whose node 1 has ID 7")
	}
	if !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("error %q does not name index 1", err)
	}
}

func TestMultihopRequiresFiniteRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Multihop = true
	kernel := sim.New()
	channel := radio.NewChannel(radio.DefaultConfig(), kernel, rng.New(1)) // unlimited range
	nd := node.MustNew(0, geo.Point{}, node.Correct,
		&node.Config{Trust: cfg.Trust}, rng.New(2))
	_, err := New(cfg, kernel, channel, []*node.Node{nd}, rng.New(3), nil)
	if err == nil {
		t.Fatal("multihop accepted an unlimited-range channel")
	}
	if !strings.Contains(err.Error(), "finite radio range") {
		t.Fatalf("error %q does not explain the finite-range requirement", err)
	}
}

func TestBinaryModeNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeBinary
	h := newHarness(t, cfg, 8, 21) // 8/36 faulty
	// Binary mode needs the binary behaviour parameters; the harness
	// config sets MissProb already. Fire events across the field: every
	// in-range member senses a yes/no and reports to its head.
	detected := 0
	const events = 40
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 15 + float64(i%4)*10, Y: 15 + float64(i/4%4)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
		_, _ = h.kernel.At(at+5, func() {
			// Binary declarations carry the head position; match by any
			// declaration in the window.
			for _, d := range h.net.Declared() {
				if d.Time >= at && d.Time <= at+5 {
					detected++
					return
				}
			}
		})
	}
	h.kernel.RunAll()
	if rate := float64(detected) / events; rate < 0.8 {
		t.Fatalf("binary-mode detection rate = %v", rate)
	}
	// Faulty nodes' trust must decay in binary mode too.
	if census := h.net.Census(); census.Distrusted+census.Doubted == 0 {
		t.Fatalf("binary mode produced no trust decay: %+v", census)
	}
}

func TestBadModeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = "quantum"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestMultihopRoutesSurviveRecluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Multihop = true
	kernel := sim.New()
	root := rng.New(31)
	chCfg := radio.DefaultConfig()
	chCfg.Range = 15
	chCfg.DropProb = 0.01
	channel := radio.NewChannel(chCfg, kernel, root.Split("channel"))
	nodeCfg := node.Config{
		SigmaCorrect: 1.6, SigmaFaulty: 4.25, MissProb: 0.25,
		SenseRadius: cfg.SenseRadius, LowerTI: 0.5, UpperTI: 0.8, Trust: cfg.Trust,
	}
	area := geo.NewRect(60, 60)
	positions := workload.GridPlacement(area, 36)
	nodes := make([]*node.Node, len(positions))
	for i, p := range positions {
		nodes[i] = node.MustNew(i, p, node.Correct, &nodeCfg, root.Split(string(rune('A'+i))))
	}
	net, err := New(cfg, kernel, channel, nodes, root.Split("net"), nil)
	if err != nil {
		t.Fatal(err)
	}

	detected := 0
	const events = 30
	for i := 0; i < events; i++ {
		if i%10 == 5 {
			at := sim.Time(float64(i)*10 + 5)
			_, _ = kernel.At(at, func() {
				if err := net.Recluster(); err != nil {
					t.Errorf("recluster: %v", err)
				}
			})
		}
		loc := geo.Point{X: 15 + float64(i%4)*10, Y: 15 + float64(i/4%4)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = kernel.At(at, func() { net.InjectEvent(i, loc) })
		_, _ = kernel.At(at+5, func() {
			if net.DetectedNear(loc, at, 5) {
				detected++
			}
		})
	}
	kernel.RunAll()
	if net.Rounds() < 3 {
		t.Fatalf("only %d rounds", net.Rounds())
	}
	if rate := float64(detected) / events; rate < 0.7 {
		t.Fatalf("detection rate across reclusterings = %v", rate)
	}
}

func TestMergedDeclarations(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 0, 41)
	// Inject events on cluster boundaries so neighborhoods span clusters.
	const events = 30
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 20 + float64(i%3)*15, Y: 20 + float64(i/3%3)*15}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
	}
	h.kernel.RunAll()
	raw := h.net.Declared()
	merged := h.net.MergedDeclarations(5, 5)
	if len(merged) > len(raw) {
		t.Fatalf("merge grew the list: %d -> %d", len(raw), len(merged))
	}
	if len(merged) == 0 {
		t.Fatal("no declarations at all")
	}
	// No two merged declarations may be near-duplicates.
	for i := range merged {
		for j := i + 1; j < len(merged); j++ {
			if merged[i].Loc.Dist(merged[j].Loc) <= 5 &&
				merged[j].Time.Sub(merged[i].Time) <= 5 {
				t.Fatalf("near-duplicates survived merge: %+v / %+v", merged[i], merged[j])
			}
		}
	}
	// Roughly one merged declaration per detected event (events are 15+
	// apart, so each is its own merge group); the occasional false
	// positive from a noisy split cluster is tolerated.
	if len(merged) > events+3 {
		t.Fatalf("%d merged declarations for %d events", len(merged), events)
	}
}

func TestNetworkGuardPassthrough(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoincidenceGuard = 0.5
	cfg.TrustWeightedCentroid = true
	h := newHarness(t, cfg, 6, 51)
	// The assembled network must still detect ordinary events with the
	// extensions enabled (they are inert on honest traffic).
	detected := 0
	const events = 25
	for i := 0; i < events; i++ {
		loc := geo.Point{X: 15 + float64(i%4)*10, Y: 15 + float64(i/4%4)*10}
		at := sim.Time(float64(i+1) * 10)
		i := i
		_, _ = h.kernel.At(at, func() { h.net.InjectEvent(i, loc) })
		_, _ = h.kernel.At(at+5, func() {
			if h.net.DetectedNear(loc, at, 5) {
				detected++
			}
		})
	}
	h.kernel.RunAll()
	if rate := float64(detected) / events; rate < 0.75 {
		t.Fatalf("guarded network detection rate = %v", rate)
	}
}
