package node

import (
	"math"
	"strconv"
	"testing"
	"unsafe"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
)

func testConfig() Config {
	return Config{
		NER:            0.01,
		MissProb:       0.5,
		FalseAlarmProb: 0.1,
		SigmaCorrect:   1.6,
		SigmaFaulty:    4.25,
		SenseRadius:    20,
		LowerTI:        0.5,
		UpperTI:        0.8,
		Trust:          core.Params{Lambda: 0.25, FaultRate: 0.1},
	}
}

// testConfigPtr returns a fresh testConfig for New, which keeps the
// pointer rather than a copy.
func testConfigPtr() *Config {
	cfg := testConfig()
	return &cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(*Config) {}, false},
		{"NER above one", func(c *Config) { c.NER = 1.5 }, true},
		{"negative miss", func(c *Config) { c.MissProb = -0.1 }, true},
		{"FA above one", func(c *Config) { c.FalseAlarmProb = 2 }, true},
		{"negative sigma", func(c *Config) { c.SigmaCorrect = -1 }, true},
		{"inverted hysteresis", func(c *Config) { c.LowerTI, c.UpperTI = 0.9, 0.5 }, true},
		{"bad collusion prob", func(c *Config) { c.CollusionSilenceProb = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %t", err, tt.wantErr)
			}
		})
	}
}

func TestNewRejectsNilSource(t *testing.T) {
	if _, err := New(1, geo.Point{}, Correct, testConfigPtr(), nil); err == nil {
		t.Fatal("New accepted nil rng")
	}
}

// A Node stores its ID in 32 bits; New rejects an ID that would not
// round-trip through ID().
func TestNewRejectsWideID(t *testing.T) {
	if _, err := New(math.MaxInt32+1, geo.Point{}, Correct, testConfigPtr(), rng.New(1)); err == nil {
		t.Fatal("New accepted an ID past 32 bits")
	}
	n := MustNew(math.MaxInt32, geo.Point{}, Correct, testConfigPtr(), rng.New(1))
	if n.ID() != math.MaxInt32 {
		t.Fatalf("ID() = %d, want %d", n.ID(), math.MaxInt32)
	}
}

func TestNewRejectsNilConfig(t *testing.T) {
	if _, err := New(1, geo.Point{}, Correct, nil, rng.New(1)); err == nil {
		t.Fatal("New accepted nil config")
	}
}

// TestNewPopulation pins the population rule and its footprint: node i
// has ID i and position i, starts correct, shares the one config, and
// draws from the stream split from the root as "node-<i>" in ID order;
// the population is three allocations (node slab, stream slab, pointer
// slice) at any size, and a Node is at most 80 bytes.
func TestNewPopulation(t *testing.T) {
	cfg := testConfigPtr()
	positions := []geo.Point{{X: 1}, {X: 2}, {X: 3}}
	nodes, err := NewPopulation(cfg, positions, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ref := rng.New(7)
	for i, n := range nodes {
		if n.ID() != i || n.Pos() != positions[i] || n.Kind() != Correct || n.cfg != cfg {
			t.Fatalf("node %d: id %d pos %v kind %v shared cfg %t", i, n.ID(), n.Pos(), n.Kind(), n.cfg == cfg)
		}
		want := ref.Split("node-" + strconv.Itoa(i))
		if got, w := n.src.Int63(), want.Int63(); got != w {
			t.Fatalf("node %d draws %d, want %d from its named stream", i, got, w)
		}
	}
	bad := *cfg
	bad.NER = 2
	for name, call := range map[string]func() error{
		"nil config":     func() error { _, err := NewPopulation(nil, positions, rng.New(1)); return err },
		"invalid config": func() error { _, err := NewPopulation(&bad, positions, rng.New(1)); return err },
		"nil root":       func() error { _, err := NewPopulation(cfg, positions, nil); return err },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}

	field := make([]geo.Point, 1000)
	root := rng.New(3)
	if n := testing.AllocsPerRun(10, func() { _, _ = NewPopulation(cfg, field, root) }); n > 3 {
		t.Errorf("NewPopulation of 1000 nodes allocates %v times, want at most 3", n)
	}
	if size := unsafe.Sizeof(Node{}); size > 80 {
		t.Errorf("Node is %d bytes, want at most 80", size)
	}
}

// TestNodesShareConfig pins that nodes built from one Config point at it
// instead of each holding a copy (TestNewPopulation bounds the Node size
// this keeps).
func TestNodesShareConfig(t *testing.T) {
	cfg := testConfig()
	a := MustNew(1, geo.Point{}, Correct, &cfg, rng.New(1))
	b := MustNew(2, geo.Point{}, Level1, &cfg, rng.New(2))
	if a.cfg != &cfg || b.cfg != &cfg {
		t.Fatal("a node copied its config")
	}
}

func TestKindPredicates(t *testing.T) {
	tests := []struct {
		kind   Kind
		faulty bool
		smart  bool
		name   string
	}{
		{Correct, false, false, "correct"},
		{Level0, true, false, "level0"},
		{Level1, true, true, "level1"},
		{Level2, true, true, "level2"},
		{Level3, true, true, "level3"},
	}
	for _, tt := range tests {
		if tt.kind.Faulty() != tt.faulty || tt.kind.Smart() != tt.smart {
			t.Fatalf("%v: Faulty=%t Smart=%t", tt.kind, tt.kind.Faulty(), tt.kind.Smart())
		}
		if tt.kind.String() != tt.name {
			t.Fatalf("String() = %q, want %q", tt.kind.String(), tt.name)
		}
	}
}

func TestCorrectNodeBinaryRates(t *testing.T) {
	cfg := testConfig()
	cfg.NER = 0.05
	n := MustNew(1, geo.Point{}, Correct, &cfg, rng.New(1))
	const trials = 100000
	misses, falseAlarms := 0, 0
	for i := 0; i < trials; i++ {
		if !n.SenseBinary(true) {
			misses++
		}
		if n.SenseBinary(false) {
			falseAlarms++
		}
	}
	if rate := float64(misses) / trials; math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("miss rate = %v, want ~0.05", rate)
	}
	if rate := float64(falseAlarms) / trials; math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("false-alarm rate = %v, want ~0.05", rate)
	}
}

func TestLevel0BinaryRates(t *testing.T) {
	n := MustNew(1, geo.Point{}, Level0, testConfigPtr(), rng.New(2))
	const trials = 100000
	misses, falseAlarms := 0, 0
	for i := 0; i < trials; i++ {
		if !n.SenseBinary(true) {
			misses++
		}
		if n.SenseBinary(false) {
			falseAlarms++
		}
	}
	if rate := float64(misses) / trials; math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("miss rate = %v, want ~0.5", rate)
	}
	if rate := float64(falseAlarms) / trials; math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("false-alarm rate = %v, want ~0.1", rate)
	}
}

func TestCorrectNodeLocationNoise(t *testing.T) {
	cfg := testConfig()
	n := MustNew(1, geo.Point{X: 50, Y: 50}, Correct, &cfg, rng.New(3))
	ev := geo.Point{X: 55, Y: 50}
	const trials = 50000
	var sumErr float64
	sends := 0
	for i := 0; i < trials; i++ {
		loc, ok := n.SenseLocation(i, ev)
		if !ok {
			continue
		}
		sends++
		sumErr += loc.Dist(ev)
	}
	if sends != trials {
		t.Fatalf("correct node dropped %d reports", trials-sends)
	}
	// Mean radial error of a 2-D Gaussian is σ·sqrt(π/2).
	want := cfg.SigmaCorrect * math.Sqrt(math.Pi/2)
	if got := sumErr / float64(sends); math.Abs(got-want) > 0.05 {
		t.Fatalf("mean radial error = %v, want ~%v", got, want)
	}
}

func TestLevel0LocationDropsAndNoise(t *testing.T) {
	cfg := testConfig()
	cfg.MissProb = 0.25
	n := MustNew(1, geo.Point{X: 50, Y: 50}, Level0, &cfg, rng.New(4))
	ev := geo.Point{X: 55, Y: 50}
	const trials = 50000
	sends := 0
	var sumErr float64
	for i := 0; i < trials; i++ {
		loc, ok := n.SenseLocation(i, ev)
		if !ok {
			continue
		}
		sends++
		sumErr += loc.Dist(ev)
	}
	if rate := 1 - float64(sends)/trials; math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("drop rate = %v, want ~0.25", rate)
	}
	want := cfg.SigmaFaulty * math.Sqrt(math.Pi/2)
	if got := sumErr / float64(sends); math.Abs(got-want) > 0.1 {
		t.Fatalf("mean radial error = %v, want ~%v", got, want)
	}
}

func TestSmartNodeHysteresis(t *testing.T) {
	cfg := testConfig()
	n := MustNew(1, geo.Point{}, Level1, &cfg, rng.New(5))
	if !n.Lying() {
		t.Fatal("level-1 node not lying initially")
	}
	// Faulty verdicts push the estimate down to lowerTI → honest phase.
	for n.TrustEstimate() > cfg.LowerTI {
		n.ObserveVerdict(false)
	}
	if n.Lying() {
		t.Fatalf("still lying at estimate %v <= lowerTI", n.TrustEstimate())
	}
	// Correct verdicts recover the estimate past upperTI → lying resumes.
	for n.TrustEstimate() < cfg.UpperTI {
		n.ObserveVerdict(true)
	}
	if !n.Lying() {
		t.Fatalf("not lying again at estimate %v >= upperTI", n.TrustEstimate())
	}
	// In between the thresholds the phase is sticky.
	n.ObserveVerdict(false) // estimate dips below upper but above lower
	if est := n.TrustEstimate(); est > cfg.LowerTI && est < cfg.UpperTI && !n.Lying() {
		t.Fatal("phase flipped inside the hysteresis band")
	}
}

func TestCorrectNodeIgnoresVerdicts(t *testing.T) {
	n := MustNew(1, geo.Point{}, Correct, testConfigPtr(), rng.New(6))
	n.ObserveVerdict(false)
	if n.TrustEstimate() != 1 || n.Lying() {
		t.Fatal("correct node reacted to verdicts")
	}
}

func TestCompromiseTransitions(t *testing.T) {
	n := MustNew(1, geo.Point{}, Correct, testConfigPtr(), rng.New(7))
	if n.Kind() != Correct || n.Lying() {
		t.Fatal("bad initial state")
	}
	n.Compromise(Level1)
	if n.Kind() != Level1 || !n.Lying() || n.TrustEstimate() != 1 {
		t.Fatal("compromise to level1 failed")
	}
	n.Compromise(Level0)
	if n.Kind() != Level0 || !n.Lying() {
		t.Fatal("compromise to level0 failed")
	}
}

func TestCoalitionPlanIsSharedPerEvent(t *testing.T) {
	cfg := testConfig()
	cfg.CollusionSilenceProb = 0.5
	src := rng.New(8)
	coal := NewCoalition(cfg, 5, src)
	a := MustNew(1, geo.Point{X: 10, Y: 10}, Level2, &cfg, rng.New(9))
	b := MustNew(2, geo.Point{X: 12, Y: 10}, Level2, &cfg, rng.New(10))
	a.JoinCoalition(coal)
	b.JoinCoalition(coal)
	if coal.Size() != 2 {
		t.Fatalf("coalition size = %d", coal.Size())
	}
	for ev := 0; ev < 50; ev++ {
		p1 := coal.Plan(ev, geo.Point{X: 11, Y: 10})
		p2 := coal.Plan(ev, geo.Point{X: 11, Y: 10})
		if p1 != p2 {
			t.Fatalf("plan not stable for event %d: %v vs %v", ev, p1, p2)
		}
	}
}

func TestCoalitionLieDistance(t *testing.T) {
	cfg := testConfig()
	cfg.CollusionSilenceProb = 0 // always fabricate
	coal := NewCoalition(cfg, 5, rng.New(11))
	ev := geo.Point{X: 50, Y: 50}
	for i := 0; i < 200; i++ {
		p := coal.Plan(i, ev)
		if p.Silent {
			t.Fatal("silence despite CollusionSilenceProb = 0")
		}
		d := p.Lie.Dist(ev)
		if d < 2*5 || d > 4*5 {
			t.Fatalf("lie at distance %v, want within [10, 20]", d)
		}
	}
}

func TestLevel2MembersReportCommonLieOrNothing(t *testing.T) {
	cfg := testConfig()
	cfg.CollusionSilenceProb = 0
	coal := NewCoalition(cfg, 5, rng.New(12))
	members := make([]*Node, 4)
	for i := range members {
		members[i] = MustNew(i, geo.Point{X: 45 + float64(i)*2, Y: 50}, Level2, &cfg, rng.New(int64(20+i)))
		members[i].JoinCoalition(coal)
	}
	ev := geo.Point{X: 50, Y: 50}
	for round := 0; round < 50; round++ {
		var reported []geo.Point
		for _, m := range members {
			if loc, ok := m.SenseLocation(round, ev); ok {
				reported = append(reported, loc)
			}
		}
		for i := 1; i < len(reported); i++ {
			if reported[i] != reported[0] {
				t.Fatalf("colluders reported different locations: %v", reported)
			}
		}
	}
}

func TestLevel2MemberStaysSilentOutsideSenseRadius(t *testing.T) {
	cfg := testConfig()
	cfg.CollusionSilenceProb = 0
	cfg.SenseRadius = 6 // tight radius: most fabrications are out of range
	coal := NewCoalition(cfg, 5, rng.New(13))
	n := MustNew(1, geo.Point{X: 50, Y: 50}, Level2, &cfg, rng.New(14))
	n.JoinCoalition(coal)
	ev := geo.Point{X: 50, Y: 50}
	for round := 0; round < 200; round++ {
		loc, ok := n.SenseLocation(round, ev)
		if !ok {
			continue
		}
		if n.Pos().Dist(loc) > cfg.SenseRadius {
			t.Fatalf("colluder reported %v outside its sensing radius", loc)
		}
	}
}

func TestReportOffsetRoundTrip(t *testing.T) {
	n := MustNew(1, geo.Point{X: 30, Y: 40}, Correct, testConfigPtr(), rng.New(15))
	loc := geo.Point{X: 35, Y: 44}
	off := n.ReportOffset(loc)
	back := geo.FromPolar(n.Pos(), off)
	if back.Dist(loc) > 1e-9 {
		t.Fatalf("offset round trip %v -> %v", loc, back)
	}
}

func TestBatteryDrainOnSense(t *testing.T) {
	n := MustNew(1, geo.Point{X: 50, Y: 50}, Correct, testConfigPtr(), rng.New(16))
	b := energy.NewBattery(100)
	n.AttachBattery(b)
	_, _ = n.SenseLocation(0, geo.Point{X: 51, Y: 50})
	if b.Residual() >= 100 {
		t.Fatal("sensing did not draw energy")
	}
}

func TestMarkCH(t *testing.T) {
	n := MustNew(1, geo.Point{}, Correct, testConfigPtr(), rng.New(17))
	n.MarkCH()
	n.MarkCH()
	if n.TimesCH() != 2 {
		t.Fatalf("TimesCH = %d", n.TimesCH())
	}
}

func TestLevel3JittersCommonLie(t *testing.T) {
	cfg := testConfig()
	cfg.CollusionSilenceProb = 0
	cfg.CollusionJitter = 1.5
	coal := NewCoalition(cfg, 5, rng.New(31))
	members := make([]*Node, 3)
	for i := range members {
		members[i] = MustNew(i, geo.Point{X: 48 + float64(i)*2, Y: 50}, Level3, &cfg, rng.New(int64(40+i)))
		members[i].JoinCoalition(coal)
	}
	ev := geo.Point{X: 50, Y: 50}
	identical, spreadSum, rounds := 0, 0.0, 0
	for round := 0; round < 200; round++ {
		var locs []geo.Point
		for _, m := range members {
			if loc, ok := m.SenseLocation(round, ev); ok {
				locs = append(locs, loc)
			}
		}
		if len(locs) < 2 {
			continue
		}
		rounds++
		for i := 1; i < len(locs); i++ {
			if locs[i] == locs[0] {
				identical++
			}
			spreadSum += locs[i].Dist(locs[0])
		}
	}
	if identical > 0 {
		t.Fatalf("%d exactly coincident level-3 reports", identical)
	}
	if rounds == 0 {
		t.Fatal("no multi-reporter rounds")
	}
	// Mean pairwise spread ≈ σ√2·√(π/2) ≈ 2.66 for σ=1.5 per axis.
	mean := spreadSum / float64(rounds*2)
	if mean < 1 || mean > 5 {
		t.Fatalf("level-3 spread = %v, want ~2.7", mean)
	}
}
