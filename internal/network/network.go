// Package network assembles the paper's full system picture (Figure 1):
// a field of sensor nodes self-organized into disjoint one-hop clusters
// by LEACH-style election, one active cluster head per cluster running
// the TIBFIT location aggregation pipeline, a base station that persists
// trust state across leadership changes and vetoes distrusted heads, and
// periodic re-clustering that rotates headship as batteries drain.
//
// The experiment harness (internal/experiment) deliberately runs a single
// dedicated cluster head, as the paper's own simulations do; this package
// is the whole-system integration those experiments abstract away, and is
// exercised by its own integration tests and example.
package network

import (
	"fmt"
	"math"
	"sort"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/chaos"
	"github.com/tibfit/tibfit/internal/cluster"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/energy"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/relay"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/shadow"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// Mode selects which detection pipeline the cluster heads run.
const (
	// ModeLocation runs the §3.2 location-determination pipeline.
	ModeLocation = "location"
	// ModeBinary runs the §3.1 binary-event pipeline: each cluster head
	// votes its own members' yes/no reports; RError is then only used by
	// DetectedNear's ground-truth matching.
	ModeBinary = "binary"
)

// Config assembles a network.
type Config struct {
	// Mode selects the detection pipeline (default ModeLocation).
	Mode string
	// SenseRadius and RError are the protocol's r_s and r_error.
	SenseRadius float64
	RError      float64
	// Tout is the aggregation window.
	Tout sim.Duration
	// Trust parameterizes every trust table and the base station.
	Trust core.Params
	// Scheme selects a registered decision scheme (internal/decision) for
	// aggregation; "tibfit" and "baseline" reproduce the paper.
	Scheme string
	// Election parameterizes LEACH rounds.
	Election leach.Config
	// ReportBits is the packet size used for energy accounting.
	ReportBits int
	// CoincidenceGuard and TrustWeightedCentroid enable the location-mode
	// extensions (see aggregator.LocationConfig). Zero values = the
	// paper's protocol.
	CoincidenceGuard      float64
	TrustWeightedCentroid bool
	// Multihop routes member reports to their head over the relay mesh
	// (§3.4's extension to sinks more than one hop away), with per-hop
	// acknowledgement and retransmission. Requires a finite radio range.
	Multihop bool
	// Relay tunes the multi-hop reliability mechanism (zero value = relay
	// defaults).
	Relay relay.Config

	// ReportRetries enables ACK + bounded exponential-backoff
	// retransmission for single-hop member→head reports: a member that
	// gets no acknowledgement (packet lost, head crashed, cluster failed
	// over) re-sends up to this many times, re-resolving its current head
	// each attempt and draining transmit energy per attempt. Zero keeps
	// the paper's fire-and-forget reports.
	ReportRetries int
	// ReportBackoff is the first retransmission delay; attempt k waits
	// ReportBackoff·2^k. Required positive when ReportRetries > 0.
	ReportBackoff sim.Duration

	// HeartbeatPeriod enables base-station liveness detection of cluster
	// heads: a head that crashes is detected HeartbeatPeriod×
	// HeartbeatMisses later and its cluster fails over to an emergency
	// appointed head that restores the station's persisted trust
	// snapshot. Zero disables failover: a dead head's cluster stays
	// leaderless until the next Recluster (the paper's implicit model).
	HeartbeatPeriod sim.Duration
	// HeartbeatMisses is how many consecutive missed heartbeats declare a
	// head dead (default 3).
	HeartbeatMisses int

	// CHQuarantine enables the base station's Byzantine-head defenses:
	// every binary cluster decision runs through a §3.4 shadow panel
	// (escalations and demotions score the head's station-side trust
	// index), event injections schedule decision-vs-ground-truth audits,
	// missed heartbeats count as head anomalies, trust handoffs travel
	// as sealed snapshots whose rejection quarantines the uploader, and
	// a head whose trust index crosses the station's threshold is
	// quarantined with an emergency trusted re-election
	// (leach.AppointAmong). Off, compromised heads operate undefended —
	// the ablation arm of the ext-byzantine-resilience figure.
	CHQuarantine bool
}

// Validate reports whether the configuration is usable. NaN and ±Inf
// durations are rejected explicitly: NaN slips through plain range
// comparisons (NaN < 0 is false) and would otherwise surface much later
// as the kernel's ErrNonFiniteTime mid-run.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"SenseRadius", c.SenseRadius},
		{"RError", c.RError},
		{"Tout", float64(c.Tout)},
		{"ReportBackoff", float64(c.ReportBackoff)},
		{"HeartbeatPeriod", float64(c.HeartbeatPeriod)},
		{"CoincidenceGuard", c.CoincidenceGuard},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("network: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.SenseRadius <= 0 || c.RError <= 0:
		return fmt.Errorf("network: SenseRadius and RError must be positive")
	case c.Tout <= 0:
		return fmt.Errorf("network: Tout must be positive")
	case !decision.Known(c.Scheme):
		return fmt.Errorf("network: unknown scheme %q", c.Scheme)
	case c.Mode != "" && c.Mode != ModeLocation && c.Mode != ModeBinary:
		return fmt.Errorf("network: unknown mode %q", c.Mode)
	case c.ReportRetries < 0:
		return fmt.Errorf("network: ReportRetries must be non-negative, got %d", c.ReportRetries)
	case c.ReportRetries > 0 && c.ReportBackoff <= 0:
		return fmt.Errorf("network: ReportRetries needs a positive ReportBackoff")
	case c.ReportBackoff < 0:
		return fmt.Errorf("network: ReportBackoff must be non-negative, got %v", float64(c.ReportBackoff))
	case c.HeartbeatPeriod < 0 || c.HeartbeatMisses < 0:
		return fmt.Errorf("network: HeartbeatPeriod and HeartbeatMisses must be non-negative")
	}
	if err := c.Trust.Validate(); err != nil {
		return err
	}
	return c.Election.Validate()
}

// DefaultConfig returns the Table-2-like parameters with a 20% head
// fraction and the TI eligibility threshold enabled.
func DefaultConfig() Config {
	return Config{
		SenseRadius: 20,
		RError:      5,
		Tout:        1,
		Trust:       core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.3},
		Scheme:      "tibfit",
		Election:    leach.Config{HeadFraction: 0.2, TIThreshold: 0.5},
		ReportBits:  256,
	}
}

// Declaration is one event the network declared: which head declared it,
// where, and when.
type Declaration struct {
	Head int
	Loc  geo.Point
	Time sim.Time
}

// clusterState is one active cluster: its head, members, and whichever
// aggregator the mode calls for.
type clusterState struct {
	head    int
	members []int
	scheme  decision.Scheme
	agg     *aggregator.Location
	binAgg  *aggregator.Binary

	// panel is the §3.4 shadow panel guarding the head's binary
	// decisions (non-nil only under CHQuarantine in binary mode).
	panel *shadow.Panel
	// issuedSnap is the persisted trust state the head started its term
	// with — the stale state a BehaviorReplay head re-uploads when no
	// snapshot verification is in force.
	issuedSnap map[int]core.Record
	// issuedBlob is the sealed RoleIssue snapshot the station handed the
	// head (CHQuarantine only) — the blob a BehaviorReplay head tries to
	// pass off as its term-end upload.
	issuedBlob []byte
}

// close kills the cluster's aggregator: its head crashed, so buffered
// reports and pending windows die with the head's RAM.
func (cs *clusterState) close() {
	if cs.agg != nil {
		cs.agg.Close()
	}
	if cs.binAgg != nil {
		cs.binAgg.Close()
	}
}

// closed reports whether the cluster's aggregator has been killed.
func (cs *clusterState) closed() bool {
	return (cs.agg != nil && cs.agg.Closed()) || (cs.binAgg != nil && cs.binAgg.Closed())
}

// report is a member's buffered last report: what it would re-send if its
// head crashed before deciding. Offsets are stored, not re-drawn, so
// re-solicited reports are byte-identical to the originals.
type report struct {
	eventID int
	off     geo.Polar
	binary  bool
	at      sim.Time
}

const defaultHeartbeatMisses = 3

// Network is the assembled system.
//
// Node IDs are dense: nodes[id] carries ID id (New rejects any other
// population), so state that every node has — the node itself, the head
// it reports to — is a slice indexed by ID, and state that only some
// nodes have — down, depleted, a buffered report, a compromise, a
// serving head's cluster — is a map keyed by ID.
type Network struct {
	cfg      Config
	kernel   *sim.Kernel
	channel  *radio.Channel
	nodes    []*node.Node
	station  *leach.Station
	election *leach.Election
	model    energy.Model
	tr       *trace.Trace

	clusters map[int]*clusterState
	memberOf []int32     // memberOf[id] is the head id reports to, -1 for none
	mesh     *relay.Mesh // non-nil in multihop mode

	// fieldGrid indexes the (static) node positions with cell size =
	// SenseRadius, so InjectEvent touches only the nodes near the event
	// instead of scanning the whole field. fieldPts holds positions in
	// n.nodes slice order — the grid returns ascending indices into it,
	// which is exactly the old full-scan iteration order — and, since a
	// node's ID is its index, every location aggregator's position table.
	// senseScratch is the reused query result buffer.
	fieldGrid    *geo.Grid
	fieldPts     []geo.Point
	senseScratch []int

	// clusterer is the clustering engine shared by every location
	// aggregator on this (single-threaded) kernel, so its scratch survives
	// reclustering and failover rebuilds.
	clusterer *cluster.Clusterer

	down       map[int]bool   // crash-faulted nodes
	depleted   map[int]bool   // nodes whose battery death has been traced
	lastReport map[int]report // per-member buffer for failover re-solicitation

	// byz maps compromised nodes to their adversarial behavior; it is
	// consulted only while the node serves as a head (a compromised
	// member just reports — per-node trust already covers lying leaves).
	byz map[int]chaos.Behavior

	// injectLog holds recent event-injection times: the ground truth
	// declarations are scored against under CHQuarantine. Pruned as
	// declarations are judged.
	injectLog []sim.Time

	declared []Declaration
	rounds   int
}

// New assembles a network over the given nodes. The node at index i must
// carry ID i; a population that breaks this is rejected with an error
// naming the first index that does. Every node should carry a battery if
// energy-aware election is desired (nil batteries are allowed).
func New(cfg Config, kernel *sim.Kernel, channel *radio.Channel,
	nodes []*node.Node, src *rng.Source, tr *trace.Trace) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if kernel == nil || channel == nil || src == nil {
		return nil, fmt.Errorf("network: kernel, channel, and rng are required")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("network: need at least one node")
	}
	if cfg.Multihop && channel.Config().Range <= 0 {
		return nil, fmt.Errorf("network: Multihop requires a finite radio range (channel Range is unlimited)")
	}
	station, err := leach.NewStation(cfg.Trust)
	if err != nil {
		return nil, err
	}
	election, err := leach.NewElection(cfg.Election, station, channel, nodes, src.Split("election"))
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:      cfg,
		kernel:   kernel,
		channel:  channel,
		nodes:    nodes,
		station:  station,
		election: election,
		model:    energy.DefaultModel(),
		tr:       tr,
		clusters: make(map[int]*clusterState),
		memberOf: make([]int32, len(nodes)),

		down:       make(map[int]bool),
		depleted:   make(map[int]bool),
		lastReport: make(map[int]report),
		byz:        make(map[int]chaos.Behavior),
		clusterer:  cluster.NewClusterer(),
	}
	n.fieldPts = make([]geo.Point, len(nodes))
	for i, nd := range nodes {
		n.fieldPts[i] = nd.Pos()
	}
	n.fieldGrid = geo.NewGrid()
	n.fieldGrid.Rebuild(n.fieldPts, cfg.SenseRadius)
	// Crashed nodes can neither self-elect nor be appointed.
	election.SetLiveness(func(id int) bool { return !n.down[id] })
	if cfg.Multihop {
		pos := make(map[int]geo.Point, len(nodes))
		for _, nd := range nodes {
			pos[nd.ID()] = nd.Pos()
		}
		relayCfg := cfg.Relay
		if relayCfg == (relay.Config{}) {
			relayCfg = relay.DefaultConfig()
		}
		mesh, err := relay.NewMesh(relayCfg, channel, kernel, pos)
		if err != nil {
			return nil, err
		}
		n.mesh = mesh
	}
	if err := n.Recluster(); err != nil {
		return nil, err
	}
	return n, nil
}

// Mesh exposes the multi-hop relay (nil unless Multihop is set).
func (n *Network) Mesh() *relay.Mesh { return n.mesh }

// Station exposes the base station (persisted trust view).
func (n *Network) Station() *leach.Station { return n.station }

// Heads returns the current cluster heads, sorted.
func (n *Network) Heads() []int {
	out := make([]int, 0, len(n.clusters))
	for h := range n.clusters {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// HeadOf returns the head currently serving the given node.
func (n *Network) HeadOf(nodeID int) (int, bool) {
	if nodeID < 0 || nodeID >= len(n.memberOf) || n.memberOf[nodeID] < 0 {
		return 0, false
	}
	return int(n.memberOf[nodeID]), true
}

// reportsTo returns the head a node's reports go to: its cluster's head,
// or the node itself when it belongs to no cluster.
func (n *Network) reportsTo(id int) int {
	if h := n.memberOf[id]; h >= 0 {
		return int(h)
	}
	return id
}

// Declared returns every event declaration so far, in decision order.
func (n *Network) Declared() []Declaration {
	out := make([]Declaration, len(n.declared))
	copy(out, n.declared)
	return out
}

// Rounds returns how many re-clustering rounds have run.
func (n *Network) Rounds() int { return n.rounds }

// Recluster uploads every active head's trust table to the base station,
// runs one LEACH election, and rebuilds the cluster aggregators from the
// persisted state. Call it between aggregation windows (the paper rotates
// heads "over time"; the tests rotate between event batches).
//
// Each head uploads only its own members' records — the "TI information
// that it has gathered" (§2). A head's table also holds records restored
// from the station for nodes outside its cluster; uploading those stale
// copies would clobber the owning cluster's fresh updates in whichever
// order the uploads happened to arrive.
func (n *Network) Recluster() error {
	for _, h := range n.Heads() {
		cs := n.clusters[h]
		if n.down[cs.head] {
			// A crashed head cannot upload; its in-RAM trust updates since
			// the previous snapshot are lost (crash-stop semantics).
			continue
		}
		if t, ok := cs.scheme.(decision.Stateful); ok {
			snap := t.Snapshot()
			upload := make(map[int]core.Record, len(cs.members))
			for _, id := range cs.members {
				if r, ok := snap[id]; ok {
					upload[id] = r
				}
			}
			n.storeHandoff(cs, upload)
		}
	}
	res := n.election.Run()
	if len(res.Heads) == 0 {
		return fmt.Errorf("network: election produced no head")
	}
	n.rounds++
	n.clusters = make(map[int]*clusterState, len(res.Heads))
	for id := range n.memberOf {
		n.memberOf[id] = -1
	}
	clusters := res.Clusters()
	for _, head := range res.Heads {
		members := clusters[head]
		cs, err := n.buildCluster(head, members)
		if err != nil {
			return err
		}
		n.clusters[head] = cs
		for _, id := range members {
			n.memberOf[id] = int32(head)
		}
		n.tr.Emit(float64(n.kernel.Now()), trace.KindCHElected, head,
			"cluster of %d", len(members))
	}
	if n.mesh != nil {
		for _, head := range n.Heads() {
			if err := n.mesh.BuildRoutes(head); err != nil {
				return err
			}
		}
	}
	return nil
}

// slander is the trust damage a BehaviorPoison head writes into each
// member's uploaded record when nothing verifies the upload: enough
// accumulated "faults" to veto the member from headship and cripple its
// vote weight for the rest of the campaign.
const (
	slanderV       = 8.0
	slanderReports = 8
)

// storeHandoff persists one retiring head's member-filtered trust
// upload. Without CHQuarantine the station takes whatever it is given —
// including a poisoning head's slander or a replaying head's stale
// term-start state. With CHQuarantine the upload travels sealed: the
// head seals it with the station's key and issued version, a poisoning
// head (whose compromise sits above the mote's sealed key store) can
// only tamper with the sealed bytes, a replaying head re-sends the blob
// it was issued — and the station rejects both, traces the rejection,
// and quarantines the uploader on the spot.
func (n *Network) storeHandoff(cs *clusterState, upload map[int]core.Record) {
	if !n.cfg.CHQuarantine {
		switch n.byz[cs.head] {
		case chaos.BehaviorPoison:
			for _, id := range cs.members {
				if id == cs.head {
					continue
				}
				if r, ok := upload[id]; ok {
					r.V += slanderV
					r.Faulty += slanderReports
					upload[id] = r
				}
			}
			n.station.StoreSnapshot(upload)
		case chaos.BehaviorReplay:
			stale := make(map[int]core.Record, len(cs.members))
			for _, id := range cs.members {
				if r, ok := cs.issuedSnap[id]; ok {
					stale[id] = r
				}
			}
			n.station.StoreSnapshot(stale)
		default:
			n.station.StoreSnapshot(upload)
		}
		return
	}
	blob := core.SealSnapshot(n.station.SealKey(), n.station.IssuedVersion(cs.head),
		core.RoleUpload, upload)
	switch n.byz[cs.head] {
	case chaos.BehaviorPoison:
		blob = append([]byte(nil), blob...)
		blob[len(blob)/2] ^= 0x20
	case chaos.BehaviorReplay:
		blob = cs.issuedBlob
	}
	if err := n.station.StoreSealed(cs.head, blob); err != nil {
		n.tr.Emit(float64(n.kernel.Now()), trace.KindSnapshotRejected, cs.head,
			"trust upload rejected: %v", err)
		n.station.QuarantineHead(cs.head)
		n.tr.Emit(float64(n.kernel.Now()), trace.KindCHQuarantined, cs.head,
			"quarantined on rejected snapshot")
	}
}

// buildCluster wires one cluster head's aggregator over its member
// positions, restoring trust state from the base station. Binary
// clusters decide through a chDecider: the shadow panel under
// CHQuarantine, otherwise a pass-through of the scheme's own
// arbitration that a compromised head can invert.
func (n *Network) buildCluster(head int, members []int) (*clusterState, error) {
	// Only the members' records travel to the head (§2: the CH "requests
	// the base station for TI information for nodes in its cluster") —
	// restoring a small cluster's scheme from a million-node ledger must
	// not copy the other records. IDs the station has never seen are
	// absent, which a trust table treats as full default trust.
	snap := n.station.SnapshotFor(members)
	cs := &clusterState{head: head, members: members, issuedSnap: snap}
	if n.cfg.CHQuarantine {
		cs.issuedBlob = n.station.IssueFor(head, members)
	}
	var w decision.Scheme
	if n.cfg.Mode == ModeBinary && n.cfg.CHQuarantine {
		// The head's decisions replicate across two shadow heads; a
		// compromised primary lies in its broadcast, which the panel's
		// 2-of-3 vote masks and escalates. An inverting head flips its
		// conclusion outright; a suppressing head recomputes over the
		// reports it censored — the shadows overheard the members'
		// actual transmissions (§3.4), so a censorship that changes the
		// outcome diverges from their replicas and escalates.
		corrupt := func(_ int, honest core.BinaryDecision) (core.BinaryDecision, bool) {
			switch n.byz[head] {
			case chaos.BehaviorInvert:
				lie := honest
				lie.Occurred = !lie.Occurred
				return lie, true
			case chaos.BehaviorSuppress:
				kept, aug, dropped := n.suppress(cs, honest.Reporters, honest.Silent)
				if !dropped {
					return honest, false
				}
				lie := cs.panel.Primary().Arbitrate(kept, aug)
				return lie, lie.Occurred != honest.Occurred
			}
			return honest, false
		}
		panel, err := shadow.NewPanelScheme(n.cfg.Scheme, decision.Params{Trust: n.cfg.Trust},
			head, corrupt, nil)
		if err != nil {
			return nil, err
		}
		panel.Restore(snap)
		cs.panel = panel
		w = panel.Primary()
	} else {
		var err error
		w, err = decision.New(n.cfg.Scheme, decision.Params{Trust: n.cfg.Trust})
		if err != nil {
			return nil, err
		}
		if st, ok := w.(decision.Stateful); ok {
			st.Restore(snap)
		}
	}
	cs.scheme = w
	if n.cfg.Mode == ModeBinary {
		bin, err := aggregator.NewBinary(
			aggregator.BinaryConfig{Tout: n.cfg.Tout, Members: members, Alive: n.memberUp,
				Decider: &chDecider{n: n, cs: cs}},
			w, n.kernel,
			func(o aggregator.BinaryOutcome) {
				if o.Decision.Occurred {
					n.declared = append(n.declared, Declaration{
						Head: head, Loc: n.nodes[head].Pos(), Time: o.DecideTime,
					})
					if n.cfg.CHQuarantine {
						n.judgeDeclaration(head)
					}
				}
			},
			func(id int, correct bool) { n.nodes[id].ObserveVerdict(correct) },
			n.tr)
		if err != nil {
			return nil, err
		}
		cs.binAgg = bin
		return cs, nil
	}
	agg, err := aggregator.NewLocation(
		aggregator.LocationConfig{
			Tout:                  n.cfg.Tout,
			RError:                n.cfg.RError,
			SenseRadius:           n.cfg.SenseRadius,
			CoincidenceGuard:      n.cfg.CoincidenceGuard,
			TrustWeightedCentroid: n.cfg.TrustWeightedCentroid,
			Clusterer:             n.clusterer,
		},
		w, n.kernel, members, n.fieldPts,
		func(o aggregator.LocationOutcome) {
			for _, cand := range o.Candidates {
				if cand.Occurred {
					n.declared = append(n.declared, Declaration{
						Head: head, Loc: cand.Loc, Time: o.DecideTime,
					})
				}
			}
		},
		func(id int, correct bool) { n.nodes[id].ObserveVerdict(correct) },
		n.tr)
	if err != nil {
		return nil, err
	}
	cs.agg = agg
	return cs, nil
}

// InjectEvent makes every event neighbor sense the event and report to
// its own cluster head over the channel, draining transmit energy. The
// head's aggregator takes it from there. eventID must be unique per
// event (it keys level-2 collusion plans).
//
// Crashed nodes do not sense; depleted nodes stop reporting (traced once
// as node-depleted). Each sensing node's report is buffered so a
// failover can re-solicit it if the head dies before deciding.
func (n *Network) InjectEvent(eventID int, loc geo.Point) {
	// The grid hands back exactly the nodes the old full scan kept
	// (same Dist predicate, bit for bit), in ascending slice-index order —
	// the full scan's own iteration order — so sensor rng draws are
	// byte-identical while the scan cost drops from O(field) to
	// O(neighborhood).
	n.senseScratch = n.fieldGrid.Range(loc, n.cfg.SenseRadius, n.senseScratch)
	for _, i := range n.senseScratch {
		nd := n.nodes[i]
		id := nd.ID()
		if n.down[id] {
			continue
		}
		if b := nd.Battery(); b != nil && !b.Alive() {
			n.markDepleted(id)
			continue
		}
		if _, ok := n.clusters[n.reportsTo(id)]; !ok {
			// No serving cluster (e.g. out of every head's range, or the
			// cluster was orphaned): the node does not even sense, matching
			// the pre-failover pipeline's draw order.
			continue
		}
		if n.cfg.Mode == ModeBinary {
			if !nd.SenseBinary(true) {
				continue
			}
			rep := report{eventID: eventID, binary: true, at: n.kernel.Now()}
			n.bufferReport(id, rep)
			n.transmitReport(id, rep, 0)
			continue
		}
		locRep, send := nd.SenseLocation(eventID, loc)
		if !send {
			continue
		}
		rep := report{eventID: eventID, off: nd.ReportOffset(locRep), at: n.kernel.Now()}
		n.bufferReport(id, rep)
		n.transmitReport(id, rep, 0)
	}
	if n.cfg.CHQuarantine {
		// Ground truth for declaration scoring: the station knows an
		// event really was injected now (the simulation's stand-in for
		// the spot checks a deployment would run).
		n.injectLog = append(n.injectLog, n.kernel.Now())
	}
}

// bufferReport stores a member's last report for failover
// re-solicitation. The buffer's only reader is failoverCheck, which can
// only be scheduled when heartbeat monitoring is on — so with it off the
// per-report map write (the one per-sensor hashing cost left in the
// inject path) is skipped entirely.
func (n *Network) bufferReport(id int, rep report) {
	if n.cfg.HeartbeatPeriod > 0 {
		n.lastReport[id] = rep
	}
}

// transmitReport sends one buffered report toward the sender's current
// head, draining transmit energy per attempt. The head is re-resolved on
// every attempt so retries follow a failover to the new head. With
// ReportRetries zero the behaviour is the paper's fire-and-forget send.
func (n *Network) transmitReport(id int, rep report, attempt int) {
	nd := n.nodes[id]
	if n.down[id] {
		return // the sender crashed between backoff and retry
	}
	if b := nd.Battery(); b != nil && !b.Alive() {
		n.markDepleted(id)
		return
	}
	head := n.reportsTo(id)
	cs, ok := n.clusters[head]
	if !ok {
		return // cluster orphaned: nobody left to report to
	}
	if b := nd.Battery(); b != nil {
		b.Draw(n.model.TxCost(n.cfg.ReportBits, nd.Pos().Dist(n.nodes[head].Pos())))
	}
	if id == head {
		// The head's own sensing result needs no radio.
		n.deliverReport(cs, id, rep)
		return
	}
	if n.mesh != nil && !rep.binary {
		// Multihop already carries per-hop ACK + retransmission.
		n.mesh.Send(id, head, func() { n.deliverReport(cs, id, rep) }, nil)
		return
	}
	out := n.channel.Send(nd.Pos(), n.nodes[head].Pos(), func() {
		// Arrival: the head acknowledges only if it is still up and still
		// serving. A crashed or replaced head returns no ACK.
		if n.cfg.ReportRetries > 0 && (n.down[head] || n.clusters[head] == nil) {
			n.retryReport(id, rep, attempt)
			return
		}
		if cur := n.clusters[head]; cur != nil {
			n.deliverReport(cur, id, rep)
		}
	})
	if out != radio.Delivered && n.cfg.ReportRetries > 0 {
		// The channel swallowed the packet: no ACK will ever come.
		n.retryReport(id, rep, attempt)
	}
}

// retryReport schedules the next transmission attempt after exponential
// backoff, or gives up once the retry budget is spent.
func (n *Network) retryReport(id int, rep report, attempt int) {
	if attempt >= n.cfg.ReportRetries {
		n.tr.Emit(float64(n.kernel.Now()), trace.KindReportDropped, id,
			"report gave up after %d attempts", attempt+1)
		return
	}
	backoff := n.cfg.ReportBackoff * sim.Duration(uint(1)<<uint(attempt))
	n.tr.Emit(float64(n.kernel.Now()), trace.KindReportRetry, id,
		"no ACK on attempt %d; retrying in %.4f", attempt+1, float64(backoff))
	n.kernel.After(backoff, func() { n.transmitReport(id, rep, attempt+1) })
}

// deliverReport hands a report to the cluster's mode-appropriate
// aggregator. Closed (dead-head) aggregators absorb it silently.
func (n *Network) deliverReport(cs *clusterState, id int, rep report) {
	if rep.binary {
		cs.binAgg.Deliver(id)
		return
	}
	cs.agg.Deliver(id, rep.off)
}

// chDecider is the decide step installed on every binary cluster. With
// a shadow panel it runs the replicated 2-of-3 decision, traces
// escalations, and scores the head's station-side trust on demotions;
// without one it reproduces the default arbitrate-and-settle step
// exactly — byte-identical end state — while giving a compromised head
// the seam to broadcast the inversion of its honest conclusion.
type chDecider struct {
	n  *Network
	cs *clusterState
}

var _ aggregator.BinaryDecider = (*chDecider)(nil)

// DecideAndSettle implements aggregator.BinaryDecider.
func (d *chDecider) DecideAndSettle(reporters, silent []int) core.BinaryDecision {
	n, cs := d.n, d.cs
	if cs.panel != nil {
		rep := cs.panel.Decide(reporters, silent)
		if rep.Disagreed {
			n.tr.Emit(float64(n.kernel.Now()), trace.KindShadowDisagree, cs.head,
				"shadow escalation; base station vote occurred=%v demoted=%v",
				rep.Final.Occurred, rep.Demoted)
		}
		if rep.Demoted {
			n.station.JudgeHead(cs.head, false)
			n.maybeQuarantine(cs.head)
		}
		return rep.Final
	}
	reporters, silent, _ = n.suppress(cs, reporters, silent)
	dec := cs.scheme.Arbitrate(reporters, silent)
	if n.byz[cs.head] == chaos.BehaviorInvert {
		dec.Occurred = !dec.Occurred
	}
	core.Apply(cs.scheme, dec)
	return dec
}

// suppress applies a BehaviorSuppress head's selective censorship at
// aggregation time: the head pretends it never heard a deterministic
// subset of its members (even IDs), moving their reports to the silent
// side of the vote. The members transmitted and were ACKed, so retries
// never fire; the reports vanish inside the head. For any other head
// the inputs pass through untouched.
func (n *Network) suppress(cs *clusterState, reporters, silent []int) (kept, aug []int, dropped bool) {
	if n.byz[cs.head] != chaos.BehaviorSuppress {
		return reporters, silent, false
	}
	kept = make([]int, 0, len(reporters))
	aug = append(make([]int, 0, len(silent)+len(reporters)), silent...)
	for _, id := range reporters {
		if id != cs.head && id%2 == 0 {
			n.tr.Emit(float64(n.kernel.Now()), trace.KindReportDropped, id,
				"report suppressed by byzantine head %d", cs.head)
			aug = append(aug, id)
			dropped = true
			continue
		}
		kept = append(kept, id)
	}
	return kept, aug, dropped
}

// CompromiseHead implements chaos.ByzantineTarget: the node turns
// adversarial, exhibiting the behavior whenever it serves as a head. A
// later crash clears the compromise (the adversary loses the mote along
// with everyone else).
func (n *Network) CompromiseHead(id int, b chaos.Behavior) {
	if id < 0 || id >= len(n.nodes) || n.down[id] {
		return
	}
	n.byz[id] = b
	n.tr.Emit(float64(n.kernel.Now()), trace.KindCHByzantine, id,
		"head compromised: %s", b)
}

// Byzantine returns the sorted IDs of currently compromised nodes.
func (n *Network) Byzantine() []int {
	out := make([]int, 0, len(n.byz))
	for id := range n.byz {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// maybeQuarantine checks the head against the station's quarantine
// state and, if it crossed the threshold, schedules the takedown on the
// kernel rather than acting inline: the caller may be deep inside the
// head's own window close, and tearing the aggregator down under it
// would corrupt the in-flight decision. After(0) runs deterministically
// once the current callback completes.
func (n *Network) maybeQuarantine(head int) {
	if !n.cfg.CHQuarantine || !n.station.HeadQuarantined(head) {
		return
	}
	n.kernel.After(0, func() { n.quarantineHead(head) })
}

// quarantineHead removes a quarantined serving head and re-elects: the
// most trusted surviving member takes over with state restored from the
// station — the same emergency appointment as crash failover, triggered
// by distrust instead of silence. Idempotent: a head already replaced,
// crashed, or re-clustered away is left alone.
func (n *Network) quarantineHead(id int) {
	cs, ok := n.clusters[id]
	if !ok || !n.station.HeadQuarantined(id) || cs.closed() || n.down[id] {
		return
	}
	n.tr.Emit(float64(n.kernel.Now()), trace.KindCHQuarantined, id,
		"station head-trust %.3f; cluster of %d re-electing", n.station.HeadTI(id), len(cs.members))
	cs.close()
	candidates := make([]int, 0, len(cs.members))
	for _, m := range cs.members {
		if m != id {
			candidates = append(candidates, m)
		}
	}
	newHead, ok := n.election.AppointAmong(candidates)
	if !ok {
		delete(n.clusters, id)
		n.tr.Emit(float64(n.kernel.Now()), trace.KindClusterOrphaned, id,
			"no eligible successor among %d members", len(candidates))
		return
	}
	rebuilt, err := n.buildCluster(newHead, cs.members)
	if err != nil {
		return // unreachable: the members were already a valid cluster
	}
	delete(n.clusters, id)
	n.clusters[newHead] = rebuilt
	for _, m := range cs.members {
		n.memberOf[m] = int32(newHead)
	}
	n.election.MarkLed(newHead)
	n.tr.Emit(float64(n.kernel.Now()), trace.KindCHFailover, newHead,
		"emergency head for cluster of %d after quarantine of %d", len(cs.members), id)
	if n.mesh != nil {
		_ = n.mesh.BuildRoutes(newHead)
	}
}

// judgeDeclaration is the station's decision-vs-ground-truth feedback:
// each declared occurrence is scored against the injection log. A
// declaration within 2·Tout of a real injection confirms the head
// (recovering its trust); a fabricated event — one no injection
// explains — is judged faulty. The check penalizes only positive
// claims, never silence: a quiet cluster may simply have been out of
// range, and punishing it would quarantine honest heads.
func (n *Network) judgeDeclaration(head int) {
	now := n.kernel.Now()
	matched := false
	keep := n.injectLog[:0]
	for _, at := range n.injectLog {
		if sim.Duration(now-at) > 2*n.cfg.Tout {
			continue // too old to explain any future declaration either
		}
		keep = append(keep, at)
		matched = true
	}
	n.injectLog = keep
	n.station.JudgeHead(head, matched)
	if !matched {
		n.maybeQuarantine(head)
	}
}

// markDepleted traces a node's battery death exactly once.
func (n *Network) markDepleted(id int) {
	if n.depleted[id] {
		return
	}
	n.depleted[id] = true
	n.tr.Emit(float64(n.kernel.Now()), trace.KindNodeDepleted, id,
		"battery exhausted; node stops reporting")
}

// memberUp reports whether a member can currently report: not crashed
// and battery alive. It is the binary aggregator's graceful-degradation
// predicate — silence from a down node carries no information.
func (n *Network) memberUp(id int) bool {
	if n.down[id] {
		return false
	}
	if b := n.nodes[id].Battery(); b != nil && !b.Alive() {
		return false
	}
	return true
}

// NodeIDs returns every node ID, sorted. Together with Heads, CrashNode,
// and RecoverNode it forms the chaos-injection surface (chaos.Target).
func (n *Network) NodeIDs() []int {
	out := make([]int, len(n.nodes))
	for id := range out {
		out[id] = id
	}
	return out
}

// Down reports whether the node is currently crash-faulted.
func (n *Network) Down(id int) bool { return n.down[id] }

// CrashNode injects a crash-stop fault: the node stops sensing,
// transmitting, and — if it is a serving head — aggregating (its cluster's
// window state dies with its RAM). When heartbeat monitoring is enabled,
// a head crash schedules the base station's liveness detection, which
// triggers failover HeartbeatPeriod×HeartbeatMisses later. Idempotent.
func (n *Network) CrashNode(id int) {
	if id < 0 || id >= len(n.nodes) || n.down[id] {
		return
	}
	n.down[id] = true
	delete(n.byz, id) // the adversary loses crashed motes too
	n.tr.Emit(float64(n.kernel.Now()), trace.KindNodeCrashed, id, "crash-stop fault")
	cs, isHead := n.clusters[id]
	if !isHead {
		return
	}
	n.tr.Emit(float64(n.kernel.Now()), trace.KindCHCrashed, id,
		"serving head down; cluster of %d leaderless", len(cs.members))
	cs.close()
	if n.cfg.HeartbeatPeriod > 0 {
		misses := n.cfg.HeartbeatMisses
		if misses == 0 {
			misses = defaultHeartbeatMisses
		}
		crashedAt := n.kernel.Now()
		// The station notices after `misses` silent heartbeat slots. The
		// check is scheduled once per crash rather than as a recurring
		// ticker so an idle kernel still drains (RunAll terminates).
		n.kernel.After(n.cfg.HeartbeatPeriod*sim.Duration(misses), func() {
			n.failoverCheck(id, crashedAt)
		})
	}
}

// RecoverNode ends a node's crash fault. A recovered head whose cluster
// was neither failed over nor re-clustered resumes leadership with a
// fresh aggregator restored from the station's persisted trust (its
// pre-crash window state is gone — crash-stop, not pause).
func (n *Network) RecoverNode(id int) {
	if !n.down[id] {
		return
	}
	delete(n.down, id)
	n.tr.Emit(float64(n.kernel.Now()), trace.KindNodeRecovered, id, "node back up")
	if cs, ok := n.clusters[id]; ok && cs.closed() {
		rebuilt, err := n.buildCluster(id, cs.members)
		if err == nil {
			n.clusters[id] = rebuilt
		}
	}
}

// failoverCheck is the base station's heartbeat verdict: if the head is
// still down and its cluster has not been replaced in the meantime, the
// station appoints the most trusted surviving member as emergency head,
// restores its persisted trust snapshot to the new head, and re-solicits
// the reports the dead head took to its grave.
func (n *Network) failoverCheck(dead int, crashedAt sim.Time) {
	cs, ok := n.clusters[dead]
	if !ok || !n.down[dead] || !cs.closed() {
		return // re-clustered, already failed over, or recovered in time
	}
	if n.cfg.CHQuarantine {
		// A head that went silent mid-term is a heartbeat anomaly: mostly
		// benign crashes, occasionally a compromised head playing dead —
		// either way the station dents its trust, recoverable through
		// later good service.
		n.station.JudgeHead(dead, false)
	}
	candidates := make([]int, 0, len(cs.members))
	for _, id := range cs.members {
		if id != dead {
			candidates = append(candidates, id)
		}
	}
	newHead, ok := n.election.AppointAmong(candidates)
	if !ok {
		delete(n.clusters, dead)
		n.tr.Emit(float64(n.kernel.Now()), trace.KindClusterOrphaned, dead,
			"no eligible successor among %d members", len(candidates))
		return
	}
	rebuilt, err := n.buildCluster(newHead, cs.members)
	if err != nil {
		return // unreachable: the members were already a valid cluster
	}
	delete(n.clusters, dead)
	n.clusters[newHead] = rebuilt
	for _, id := range cs.members {
		n.memberOf[id] = int32(newHead)
	}
	n.election.MarkLed(newHead)
	n.tr.Emit(float64(n.kernel.Now()), trace.KindCHFailover, newHead,
		"emergency head for cluster of %d after crash of %d", len(cs.members), dead)
	if n.mesh != nil {
		// Route rebuild toward the new head; failures only mean some
		// members are currently unreachable, which retries will surface.
		_ = n.mesh.BuildRoutes(newHead)
	}
	// Re-solicit reports recent enough to belong to a window the dead
	// head never decided (older ones were already voted on). Stored
	// offsets are re-sent verbatim: no sensor re-draws, so the recovered
	// decision uses the same data the lost one would have.
	for _, id := range cs.members {
		rep, ok := n.lastReport[id]
		if !ok || rep.at.Add(n.cfg.Tout) < crashedAt {
			continue
		}
		n.transmitReport(id, rep, 0)
	}
}

// DetectedNear reports whether any declaration within rError of loc was
// made at or after time t — the network-level ground-truth check.
// Declarations are appended as the kernel decides them, so their times
// never decrease: the scan starts at the first one at or after t.
func (n *Network) DetectedNear(loc geo.Point, t sim.Time, rError float64) bool {
	i := sort.Search(len(n.declared), func(i int) bool { return n.declared[i].Time >= t })
	for _, d := range n.declared[i:] {
		if d.Loc.Dist(loc) <= rError {
			return true
		}
	}
	return false
}

// MergedDeclarations collapses declarations that refer to the same event:
// an event whose neighborhood spans several clusters can be declared by
// more than one head. Declarations within rError of each other and within
// window of each other's decision time count as one, keeping the earliest.
// Binary-mode declarations (which carry head positions, not event
// locations) should not be merged spatially; callers in binary mode
// should group by time alone.
func (n *Network) MergedDeclarations(rError float64, window sim.Duration) []Declaration {
	var out []Declaration
	for _, d := range n.declared {
		dup := false
		for _, kept := range out {
			if d.Loc.Dist(kept.Loc) <= rError && d.Time.Sub(kept.Time) <= window {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}
