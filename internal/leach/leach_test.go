package leach

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

func trustParams() core.Params {
	return core.Params{Lambda: 0.25, FaultRate: 0.1}
}

func testNodes(t *testing.T, n int) []*node.Node {
	t.Helper()
	cfg := node.Config{Trust: trustParams()}
	out := make([]*node.Node, n)
	for i := range out {
		out[i] = node.MustNew(i, geo.Point{X: float64(i * 10), Y: 0}, node.Correct, &cfg, rng.New(int64(100+i)))
	}
	return out
}

func testChannel() *radio.Channel {
	return radio.NewChannel(radio.DefaultConfig(), sim.New(), rng.New(7))
}

func newElection(t *testing.T, cfg Config, station *Station, nodes []*node.Node, seed int64) *Election {
	t.Helper()
	e, err := NewElection(cfg, station, testChannel(), nodes, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{HeadFraction: 0.2}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{HeadFraction: 0},
		{HeadFraction: 1.5},
		{HeadFraction: 0.2, TIThreshold: 1},
		{HeadFraction: 0.2, TIThreshold: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestStationPersistsTrust(t *testing.T) {
	station, err := NewStation(trustParams())
	if err != nil {
		t.Fatal(err)
	}
	// First CH term accumulates state, then hands off.
	ch1 := core.MustNewTable(trustParams())
	for i := 0; i < 5; i++ {
		ch1.Judge(3, false)
	}
	station.StoreSnapshot(ch1.Snapshot())

	// Second CH inherits it.
	ch2 := station.NewTable()
	if got, want := ch2.TI(3), ch1.TI(3); got != want {
		t.Fatalf("inherited TI = %v, want %v", got, want)
	}
	if station.TI(3) != ch1.TI(3) {
		t.Fatalf("station TI = %v", station.TI(3))
	}
	if station.TI(99) != 1 {
		t.Fatal("unknown node TI != 1")
	}
}

func TestStationEligibility(t *testing.T) {
	station, _ := NewStation(core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.1})
	ch := core.MustNewTable(core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.1})
	for i := 0; i < 4; i++ {
		ch.Judge(1, false) // TI = e^{-0.9} ≈ 0.41 after 1 fault; after 4 ≈ 0.41^4
	}
	station.StoreSnapshot(ch.Snapshot())
	if station.Eligible(1, 0.5) {
		t.Fatal("distrusted node eligible at threshold 0.5")
	}
	if !station.Eligible(2, 0.5) {
		t.Fatal("fresh node not eligible")
	}
}

func TestStationIsolatedNeverEligible(t *testing.T) {
	p := core.Params{Lambda: 1, FaultRate: 0, RemovalThreshold: 0.5}
	station, _ := NewStation(p)
	ch := core.MustNewTable(p)
	ch.Judge(1, false)
	if !ch.Isolated(1) {
		t.Fatal("setup: not isolated")
	}
	station.StoreSnapshot(ch.Snapshot())
	if station.Eligible(1, 0) {
		t.Fatal("isolated node eligible")
	}
}

func TestElectionProducesAHead(t *testing.T) {
	nodes := testNodes(t, 10)
	station, _ := NewStation(trustParams())
	e := newElection(t, Config{HeadFraction: 0.2}, station, nodes, 1)
	res := e.Run()
	if len(res.Heads) == 0 {
		t.Fatalf("no head elected: %+v", res)
	}
	// Every non-head node is affiliated with some head.
	headSet := make(map[int]bool)
	for _, h := range res.Heads {
		headSet[h] = true
	}
	for _, n := range nodes {
		if headSet[n.ID()] {
			continue
		}
		if res.Affiliation[n.ID()] < 0 {
			t.Fatalf("node %d unaffiliated", n.ID())
		}
	}
}

func TestElectionVetoesDistrusted(t *testing.T) {
	nodes := testNodes(t, 6)
	station, _ := NewStation(trustParams())
	// Destroy node 0-4's trust so only node 5 is eligible.
	ch := core.MustNewTable(trustParams())
	for id := 0; id < 5; id++ {
		for i := 0; i < 20; i++ {
			ch.Judge(id, false)
		}
	}
	station.StoreSnapshot(ch.Snapshot())
	e := newElection(t, Config{HeadFraction: 0.5, TIThreshold: 0.5}, station, nodes, 2)
	for round := 0; round < 20; round++ {
		res := e.Run()
		for _, h := range res.Heads {
			if h != 5 {
				t.Fatalf("round %d elected distrusted head %d", round, h)
			}
		}
	}
}

func TestElectionRotatesHeads(t *testing.T) {
	nodes := testNodes(t, 10)
	station, _ := NewStation(trustParams())
	e := newElection(t, Config{HeadFraction: 0.2}, station, nodes, 3)
	led := make(map[int]bool)
	for round := 0; round < 40; round++ {
		for _, h := range e.Run().Heads {
			led[h] = true
		}
	}
	if len(led) < 5 {
		t.Fatalf("only %d distinct heads over 40 rounds", len(led))
	}
}

func TestElectionCooloff(t *testing.T) {
	nodes := testNodes(t, 4)
	station, _ := NewStation(trustParams())
	e := newElection(t, Config{HeadFraction: 0.5}, station, nodes, 4)
	prev := map[int]bool{}
	for round := 0; round < 20; round++ {
		res := e.Run()
		for _, h := range res.Heads {
			if prev[h] {
				t.Fatalf("round %d re-elected head %d inside cool-off", round, h)
			}
		}
		prev = map[int]bool{}
		for _, h := range res.Heads {
			prev[h] = true
		}
	}
}

func TestElectionAppointsWhenNobodySelfElects(t *testing.T) {
	nodes := testNodes(t, 3)
	station, _ := NewStation(trustParams())
	// Tiny head fraction: self-election essentially never fires, so the
	// station appoints.
	e := newElection(t, Config{HeadFraction: 1e-9, MaxRetries: 2}, station, nodes, 5)
	res := e.Run()
	if !res.Appointed || len(res.Heads) != 1 {
		t.Fatalf("appointment fallback failed: %+v", res)
	}
}

func TestElectionSkipsDeadBatteries(t *testing.T) {
	nodes := testNodes(t, 4)
	for _, n := range nodes[:3] {
		b := energy.NewBattery(1)
		b.Draw(1)
		n.AttachBattery(b)
	}
	nodes[3].AttachBattery(energy.NewBattery(100))
	station, _ := NewStation(trustParams())
	e := newElection(t, Config{HeadFraction: 0.5}, station, nodes, 6)
	for round := 0; round < 10; round++ {
		for _, h := range e.Run().Heads {
			if h != 3 {
				t.Fatalf("dead-battery node %d elected", h)
			}
		}
	}
}

func TestAffiliationPicksStrongestSignal(t *testing.T) {
	nodes := testNodes(t, 5) // positions x = 0, 10, 20, 30, 40
	station, _ := NewStation(trustParams())
	e := newElection(t, Config{HeadFraction: 0.2}, station, nodes, 7)
	aff := e.affiliate([]int{0, 4})
	// Node 1 (x=10) is nearer head 0; node 3 (x=30) nearer head 4.
	if aff[1] != 0 || aff[3] != 4 {
		t.Fatalf("affiliation = %v", aff)
	}
}

func TestResultClusters(t *testing.T) {
	res := Result{
		Heads:       []int{1, 5},
		Affiliation: []int{-1, -1, 1, 5, 5, -1},
	}
	clusters := res.Clusters()
	if len(clusters[1]) != 2 || len(clusters[5]) != 3 {
		t.Fatalf("clusters = %v", clusters)
	}
	if clusters[5][0] != 3 || clusters[5][2] != 5 {
		t.Fatalf("cluster members not sorted: %v", clusters[5])
	}
	for h, members := range clusters {
		if cap(members) != len(members) {
			t.Errorf("cluster %d holds %d IDs in a backing array of %d", h, len(members), cap(members))
		}
	}
}

// TestClustersMatchAffiliation checks Clusters against a brute grouping
// of the affiliation slice on seeded random populations: every head's
// bucket holds the head and exactly the nodes affiliated with it, in
// ascending ID order, and no other bucket exists.
func TestClustersMatchAffiliation(t *testing.T) {
	cfg := node.Config{Trust: trustParams()}
	for seed := int64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		nodes := make([]*node.Node, 20+src.Intn(200))
		for i := range nodes {
			p := geo.Point{X: src.Uniform(0, 200), Y: src.Uniform(0, 200)}
			nodes[i] = node.MustNew(i, p, node.Correct, &cfg, src.Split("n"))
		}
		station, _ := NewStation(trustParams())
		e := newElection(t, Config{HeadFraction: 0.1}, station, nodes, seed)
		for round := 0; round < 3; round++ {
			res := e.Run()
			if len(res.Affiliation) != len(nodes) {
				t.Fatalf("seed %d: affiliation covers %d of %d nodes", seed, len(res.Affiliation), len(nodes))
			}
			want := make(map[int][]int, len(res.Heads))
			for _, h := range res.Heads {
				want[h] = nil
			}
			for id := range nodes {
				if h := res.Affiliation[id]; h >= 0 {
					want[h] = append(want[h], id)
				} else if _, isHead := want[id]; isHead {
					want[id] = append(want[id], id)
				}
			}
			for _, members := range want {
				sort.Ints(members)
			}
			if got := res.Clusters(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: Clusters() = %v, brute grouping = %v", seed, round, got, want)
			}
		}
	}
}

// TestNewElectionRejectsSparseIDs pins the dense-ID contract: node i must
// carry ID i, and the error names the first index that does not.
func TestNewElectionRejectsSparseIDs(t *testing.T) {
	nodes := testNodes(t, 3)
	cfg := node.Config{Trust: trustParams()}
	nodes[1] = node.MustNew(7, geo.Point{X: 10}, node.Correct, &cfg, rng.New(1))
	station, _ := NewStation(trustParams())
	_, err := NewElection(Config{HeadFraction: 0.5}, station, testChannel(), nodes, rng.New(1))
	if err == nil {
		t.Fatal("accepted a population whose node 1 has ID 7")
	}
	if !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("error %q does not name index 1", err)
	}
}

func TestNewElectionValidation(t *testing.T) {
	nodes := testNodes(t, 2)
	station, _ := NewStation(trustParams())
	if _, err := NewElection(Config{HeadFraction: 0}, station, testChannel(), nodes, rng.New(1)); err == nil {
		t.Fatal("accepted invalid config")
	}
	if _, err := NewElection(Config{HeadFraction: 0.5}, nil, testChannel(), nodes, rng.New(1)); err == nil {
		t.Fatal("accepted nil station")
	}
	if _, err := NewElection(Config{HeadFraction: 0.5}, station, testChannel(), nil, rng.New(1)); err == nil {
		t.Fatal("accepted empty nodes")
	}
}
