package tibfit_test

// A walk across every facade constructor and helper, proving the public
// API surface is wired to the right internals. Behavior is tested in
// depth by the internal packages; this exercises the re-exports.

import (
	"math"
	"testing"

	"github.com/tibfit/tibfit"
)

func TestFacadeSubstrateWalkthrough(t *testing.T) {
	kernel := tibfit.NewKernel()
	rand := tibfit.NewRand(1)
	radio := tibfit.NewRadio(tibfit.DefaultRadioConfig(), kernel, rand.Split("radio"))
	if radio.LossRate() != 0 {
		t.Fatal("fresh radio has losses")
	}

	trust := tibfit.TrustParams{Lambda: 0.25, FaultRate: 0.1}
	station, err := tibfit.NewStation(trust)
	if err != nil {
		t.Fatal(err)
	}
	if station.TI(1) != 1 {
		t.Fatal("fresh station TI != 1")
	}

	nodeCfg := tibfit.NodeConfig{
		SigmaCorrect: 1.6, SigmaFaulty: 4.25, MissProb: 0.25,
		SenseRadius: 20, LowerTI: 0.5, UpperTI: 0.8, Trust: trust,
	}
	var nodes []*tibfit.SensorNode
	for i := 0; i < 9; i++ {
		n, err := tibfit.NewSensorNode(i,
			tibfit.Point{X: float64(10 + i%3*10), Y: float64(10 + i/3*10)},
			tibfit.Correct, nodeCfg, rand.Split(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	election, err := tibfit.NewElection(
		tibfit.LEACHConfig{HeadFraction: 0.3}, station, radio, nodes, rand.Split("el"))
	if err != nil {
		t.Fatal(err)
	}
	if res := election.Run(); len(res.Heads) == 0 {
		t.Fatal("no head elected")
	}

	table := tibfit.MustNewTrustTable(trust)
	binAgg, err := tibfit.NewBinaryAggregator(
		tibfit.BinaryAggregatorConfig{Tout: 1, Members: []int{0, 1, 2}},
		table, kernel, nil, nil, tibfit.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	binAgg.Deliver(0)
	binAgg.Deliver(1)

	locAgg, err := tibfit.NewLocationAggregator(
		tibfit.LocationAggregatorConfig{Tout: 1, RError: 5, SenseRadius: 20},
		table, kernel, []int{0}, []tibfit.Point{{X: 10, Y: 10}}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	locAgg.Deliver(0, tibfit.Polar{R: 1})
	kernel.RunAll()
	if binAgg.Windows() != 1 || locAgg.Rounds() != 1 {
		t.Fatalf("windows=%d rounds=%d", binAgg.Windows(), locAgg.Rounds())
	}
}

func TestFacadeNetworkAndMobility(t *testing.T) {
	kernel := tibfit.NewKernel()
	rand := tibfit.NewRand(2)
	radio := tibfit.NewRadio(tibfit.DefaultRadioConfig(), kernel, rand.Split("radio"))

	netCfg := tibfit.DefaultNetworkConfig()
	var nodes []*tibfit.SensorNode
	nodeCfg := tibfit.NodeConfig{
		SigmaCorrect: 1.6, SigmaFaulty: 4.25, SenseRadius: netCfg.SenseRadius,
		LowerTI: 0.5, UpperTI: 0.8, Trust: netCfg.Trust,
	}
	for i := 0; i < 16; i++ {
		n, err := tibfit.NewSensorNode(i,
			tibfit.Point{X: float64(5 + i%4*10), Y: float64(5 + i/4*10)},
			tibfit.Correct, nodeCfg, rand.Split(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	net, err := tibfit.NewNetwork(netCfg, kernel, radio, nodes, rand.Split("net"), nil)
	if err != nil {
		t.Fatal(err)
	}
	net.InjectEvent(0, tibfit.Point{X: 15, Y: 15})
	kernel.RunAll()
	if len(net.Heads()) == 0 {
		t.Fatal("no heads")
	}

	area := tibfit.NewArea(100, 100)
	wp, err := tibfit.NewWaypoint(area, tibfit.Point{X: 50, Y: 50}, 1, 2, rand.Split("wp"))
	if err != nil {
		t.Fatal(err)
	}
	if p := wp.At(10); !area.Contains(p) {
		t.Fatalf("waypoint left the area: %v", p)
	}
}

func TestFacadeAnalytics(t *testing.T) {
	if p := tibfit.RayleighExceedProb(4.25, 5); p < 0.49 || p > 0.51 {
		t.Fatalf("RayleighExceedProb = %v, want ~0.50", p)
	}
	if p := tibfit.Hypergeometric(10, 4, 2, 2); math.Abs(p-6.0/45) > 1e-12 {
		t.Fatalf("Hypergeometric = %v", p)
	}
	if ti := tibfit.ExpectedTI(0.25, 0.1, 0.5, 10); ti >= 1 || ti <= 0 {
		t.Fatalf("ExpectedTI = %v", ti)
	}
	if n, ok := tibfit.ReportsUntilTI(0.25, 0.1, 0.5, 0.3); !ok || n != 13 {
		t.Fatalf("ReportsUntilTI = %d, %t", n, ok)
	}
	if p := tibfit.TIBFITBinarySuccess(10, 7, 0.99, 0.5, 1, 0); p < 0.97 {
		t.Fatalf("TIBFITBinarySuccess = %v", p)
	}
	curve := tibfit.ReliabilityCurve(10, 7, 50, 0.99, 0.5, 0.1, 0.01)
	if len(curve) != 50 {
		t.Fatalf("curve length %d", len(curve))
	}
	if acc := tibfit.PredictedRunAccuracy(10, 7, 100, 0.99, 0.5, 0.1, 0.01); acc < 0.9 {
		t.Fatalf("PredictedRunAccuracy = %v", acc)
	}

	grid := []tibfit.Point{}
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			grid = append(grid, tibfit.Point{X: float64(5 + x*10), Y: float64(5 + y*10)})
		}
	}
	hist, err := tibfit.NeighborCounts(tibfit.NewArea(100, 100), grid, 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	p := tibfit.LocationParams{PCorrect: 0.95, PFaulty: 0.5, TICorrect: 1, TIFaulty: 1}
	if s := tibfit.LocationSuccess(hist, 100, 30, p); s < 0.8 {
		t.Fatalf("LocationSuccess = %v", s)
	}

	summary := tibfit.Summarize([]float64{1, 2, 3})
	if summary.Mean != 2 {
		t.Fatalf("Summarize mean = %v", summary.Mean)
	}
	if iv := tibfit.Wilson95(90, 100); !iv.Contains(0.9) {
		t.Fatalf("Wilson95 = %v", iv)
	}
	if _, err := tibfit.Hysteresis(0.25, 0.1, 0.05, 0.01, 0.5, 0.8); err == nil {
		t.Fatal("never-sinking hysteresis accepted")
	}
}
