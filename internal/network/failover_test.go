package network

import (
	"os"
	"strconv"
	"testing"

	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
	"github.com/tibfit/tibfit/internal/workload"
)

// failoverConfig is the resilience wiring every failover test uses:
// heartbeat liveness detection plus ACK/backoff report retransmission.
func failoverConfig(mode string) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.HeartbeatPeriod = cfg.Tout / 5
	cfg.HeartbeatMisses = 3
	cfg.ReportRetries = 3
	cfg.ReportBackoff = cfg.Tout / 50
	return cfg
}

// newTracedHarness is newHarness with a trace attached, for tests that
// assert on emitted fault and recovery records.
func newTracedHarness(t *testing.T, cfg Config, faulty int, seed int64, tr *trace.Trace) *harness {
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
	net, err := New(cfg, kernel, channel, nodes, root.Split("net"), tr)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, kernel: kernel, nodes: nodes}
}

// TestHeadCrashFailover kills a serving head in the middle of an
// aggregation window and asserts the whole recovery path: ch-crashed
// then ch-failover in the trace, headship handed to a live member, the
// station's trust snapshot restored on the emergency head, and the
// event still declared — by the new head — from re-solicited reports.
func TestHeadCrashFailover(t *testing.T) {
	tr := trace.New().Keep()
	h := newTracedHarness(t, failoverConfig(ModeBinary), 0, 11, tr)
	heads := h.net.Heads()
	if len(heads) < 2 {
		t.Fatalf("need at least 2 clusters, got heads %v", heads)
	}
	dead := heads[0]
	loc := h.nodes[dead].Pos()

	// Give one member a distrusted history at the station: if the
	// emergency head restores the snapshot, it must see this too.
	sentinel := -1
	for _, id := range h.net.NodeIDs() {
		if int(h.net.memberOf[id]) == dead && id != dead {
			sentinel = id
			break
		}
	}
	if sentinel < 0 {
		t.Fatalf("head %d has no members", dead)
	}
	h.net.Station().StoreSnapshot(map[int]core.Record{sentinel: {V: 8, Faulty: 8}})

	_, _ = h.kernel.At(10, func() { h.net.InjectEvent(0, loc) })
	_, _ = h.kernel.At(10.5, func() { h.net.CrashNode(dead) })
	h.kernel.RunAll()

	if got := tr.Count(trace.KindCHCrashed); got != 1 {
		t.Fatalf("ch-crashed records = %d, want 1", got)
	}
	if got := tr.Count(trace.KindCHFailover); got != 1 {
		t.Fatalf("ch-failover records = %d, want 1\ntrace:\n%s", got, tr.Summary())
	}
	crashedAt := tr.Filter(trace.KindCHCrashed)[0].Time
	failedOverAt := tr.Filter(trace.KindCHFailover)[0].Time
	if !(crashedAt < failedOverAt) {
		t.Fatalf("ch-crashed at %v not before ch-failover at %v", crashedAt, failedOverAt)
	}

	newHead, ok := h.net.HeadOf(sentinel)
	if !ok || newHead == dead {
		t.Fatalf("member %d still led by %v after failover", sentinel, newHead)
	}
	if h.net.Down(newHead) {
		t.Fatalf("emergency head %d is down", newHead)
	}
	for _, head := range h.net.Heads() {
		if head == dead {
			t.Fatalf("dead head %d still listed as serving", dead)
		}
	}

	// Trust survived the handoff: the emergency head's restored table
	// carries the sentinel's pre-crash fault history.
	cs := h.net.clusters[newHead]
	if cs == nil {
		t.Fatalf("no cluster under emergency head %d", newHead)
	}
	if ti := cs.scheme.TI(sentinel); ti > 0.5 {
		t.Fatalf("sentinel TI after failover = %v, want the restored low snapshot", ti)
	}

	// The event beats the crash: re-solicited reports reach the
	// emergency head, whose fresh window still declares it.
	declaredByNewHead := false
	for _, d := range h.net.Declared() {
		if d.Head == newHead && float64(d.Time) > failedOverAt {
			declaredByNewHead = true
		}
	}
	if !declaredByNewHead {
		t.Fatalf("no declaration by emergency head %d after failover; declared: %+v",
			newHead, h.net.Declared())
	}
}

// TestNoFailoverWithoutHeartbeat pins the paper's implicit model: with
// HeartbeatPeriod zero a dead head's cluster stays leaderless (no
// ch-failover record) until the next recluster.
func TestNoFailoverWithoutHeartbeat(t *testing.T) {
	tr := trace.New().Keep()
	h := newTracedHarness(t, DefaultConfig(), 0, 11, tr)
	dead := h.net.Heads()[0]
	_, _ = h.kernel.At(10, func() { h.net.CrashNode(dead) })
	h.kernel.RunAll()
	if got := tr.Count(trace.KindCHCrashed); got != 1 {
		t.Fatalf("ch-crashed records = %d, want 1", got)
	}
	if got := tr.Count(trace.KindCHFailover); got != 0 {
		t.Fatalf("failover ran without heartbeats: %d records", got)
	}
	if cs := h.net.clusters[dead]; cs == nil || !cs.closed() {
		t.Fatal("dead head's cluster should remain, closed, until reclustering")
	}
}

// TestCrashedNodesLeaveNRSet pins graceful degradation: a crashed
// member's silence must not be judged, so its trust is unchanged by
// windows it was dead for.
func TestCrashedNodesLeaveNRSet(t *testing.T) {
	h := newTracedHarness(t, failoverConfig(ModeBinary), 0, 13, trace.New())
	heads := h.net.Heads()
	dead := -1
	// Crash a plain member (not a head) near the event site.
	loc := geo.Point{X: 30, Y: 30}
	for _, id := range h.net.NodeIDs() {
		isHead := false
		for _, hd := range heads {
			if id == hd {
				isHead = true
			}
		}
		if isMember := h.net.memberOf[id] >= 0; isMember && !isHead &&
			h.nodes[id].Pos().Dist(loc) < 15 {
			dead = id
			break
		}
	}
	if dead < 0 {
		t.Fatal("no member near the event site")
	}
	_, _ = h.kernel.At(5, func() { h.net.CrashNode(dead) })
	for i := 0; i < 10; i++ {
		i := i
		_, _ = h.kernel.At(sim.Time(float64(i+1)*10), func() { h.net.InjectEvent(i, loc) })
	}
	h.kernel.RunAll()
	head := int(h.net.memberOf[dead])
	if cs := h.net.clusters[head]; cs != nil {
		if _, seen := cs.scheme.(decision.Stateful).Snapshot()[dead]; seen {
			t.Fatalf("crashed member %d was trust-judged while down", dead)
		}
	}
}

// TestDepletedNodeStopsReporting pins satellite behaviour: a node whose
// battery dies is traced node-depleted exactly once and never reports
// again (the paper's model keeps transmitting on an empty battery).
func TestDepletedNodeStopsReporting(t *testing.T) {
	tr := trace.New().Keep()
	h := newTracedHarness(t, failoverConfig(ModeBinary), 0, 17, tr)
	// Drain one non-head node to near-death: the first report flattens it.
	victim := -1
	for _, id := range h.net.NodeIDs() {
		if isMember := h.net.memberOf[id] >= 0; isMember {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no member found")
	}
	h.nodes[victim].AttachBattery(energy.NewBattery(1))
	loc := h.nodes[victim].Pos()
	for i := 0; i < 6; i++ {
		i := i
		_, _ = h.kernel.At(sim.Time(float64(i+1)*10), func() { h.net.InjectEvent(i, loc) })
	}
	h.kernel.RunAll()
	if got := tr.Count(trace.KindNodeDepleted); got != 1 {
		t.Fatalf("node-depleted records = %d, want exactly 1", got)
	}
	rec := tr.Filter(trace.KindNodeDepleted)[0]
	if rec.Node != victim {
		t.Fatalf("depleted node = %d, want %d", rec.Node, victim)
	}
	// The node died on its first (and only) transmit, so it cannot have
	// buffered a report for the final event.
	if last, ok := h.net.lastReport[victim]; ok && last.eventID == 5 {
		t.Fatal("depleted node kept reporting through the whole run")
	}
}

// TestChaosSoak runs a chaos campaign against a failover-enabled
// network and asserts structural invariants. The seed comes from
// TIBFIT_SOAK_SEED so CI's `make soak` can randomize it under -race; a
// plain `go test` run stays fixed-seed and deterministic. The fault mix
// comes from TIBFIT_SOAK_MODE, and a run without it soaks all three:
//
//	crash     — crashes, head crashes, a blackout, duplication, jitter
//	byzantine — adversarial head compromises under CH quarantine, no crashes
//	mixed     — both at once
func TestChaosSoak(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("TIBFIT_SOAK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("TIBFIT_SOAK_SEED = %q: %v", s, err)
		}
		seed = v
	}
	modes := []string{"crash", "byzantine", "mixed"}
	switch soakMode := os.Getenv("TIBFIT_SOAK_MODE"); soakMode {
	case "":
	case "crash", "byzantine", "mixed":
		modes = []string{soakMode}
	default:
		t.Fatalf("TIBFIT_SOAK_MODE = %q, want crash, byzantine or mixed", soakMode)
	}
	for _, soakMode := range modes {
		t.Run(soakMode, func(t *testing.T) { runSoak(t, seed, soakMode) })
	}
}

// runSoak is one chaos campaign under the given fault mix (crash,
// byzantine or mixed) in both modes, with its structural invariants.
func runSoak(t *testing.T, seed int64, soakMode string) {
	t.Helper()
	crashes := soakMode != "byzantine"
	byz := soakMode != "crash"
	t.Logf("soak seed %d mode %s", seed, soakMode)

	for _, mode := range []string{ModeBinary, ModeLocation} {
		tr := trace.New()
		netCfg := failoverConfig(mode)
		if byz {
			netCfg.CHQuarantine = true
		}
		h := newTracedHarness(t, netCfg, 6, seed, tr)
		root := rng.New(seed + 1000)
		const events, period = 40, 10.0
		ccfg := chaos.Config{Horizon: events * period}
		if crashes {
			ccfg = chaos.DefaultConfig(events * period)
			ccfg.CrashFraction = 0.3
			ccfg.HeadCrashes = 3
		}
		if byz {
			ccfg.ByzHeads = 2
		}
		csrc := root.Split("chaos")
		engine, err := chaos.New(ccfg, h.kernel, csrc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Arm(h.net, csrc); err != nil {
			t.Fatal(err)
		}
		evSrc := root.Split("events")
		for i := 0; i < events; i++ {
			i := i
			loc := geo.Point{X: evSrc.Uniform(0, 60), Y: evSrc.Uniform(0, 60)}
			_, _ = h.kernel.At(sim.Time(float64(i+1)*period), func() { h.net.InjectEvent(i, loc) })
			if i%10 == 5 {
				_, _ = h.kernel.At(sim.Time(float64(i+1)*period+5), func() { _ = h.net.Recluster() })
			}
		}
		h.kernel.RunAll()

		st := engine.Stats()
		if crashes && st.Crashes == 0 {
			t.Fatalf("%s: soak injected no crashes", mode)
		}
		if st.Recoveries > st.Crashes {
			t.Fatalf("%s: more recoveries (%d) than crashes (%d)", mode, st.Recoveries, st.Crashes)
		}
		last := sim.Time(0)
		for _, d := range h.net.Declared() {
			if d.Time < last {
				t.Fatalf("%s: declarations out of order: %v after %v", mode, d.Time, last)
			}
			last = d.Time
		}
		for _, head := range h.net.Heads() {
			if h.net.Down(head) && h.net.clusters[head] != nil && !h.net.clusters[head].closed() {
				t.Fatalf("%s: down head %d serving an open cluster", mode, head)
			}
		}
		if byz {
			if got := tr.Count(trace.KindCHByzantine); got != 2 {
				t.Fatalf("%s: byzantine compromises = %d, want 2", mode, got)
			}
			// A quarantined head must never be left in office.
			for _, head := range h.net.Heads() {
				if h.net.station.HeadQuarantined(head) {
					t.Fatalf("%s: quarantined head %d still serving", mode, head)
				}
			}
			// Every quarantine was traced, and nobody is quarantined twice.
			if traced, isolated := tr.Count(trace.KindCHQuarantined), len(h.net.station.QuarantinedHeads()); traced != isolated {
				t.Fatalf("%s: %d ch-quarantined records for %d quarantined heads", mode, traced, isolated)
			}
		}
	}
}
