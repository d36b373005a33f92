// Package leach implements the LEACH-style rotating cluster-head election
// the paper adopts for cluster formation (§2, refs [3][4]), extended with
// TIBFIT's trust-index eligibility rule, plus the base station that
// persists trust state across leadership changes.
//
// Per election round:
//
//  1. Every node that has not served as CH within the last 1/p rounds
//     self-elects with probability T·(residual energy fraction), where
//     T = p/(1 − p·(r mod 1/p)) is LEACH's epoch-ramped threshold —
//     the energy-aware rotation that keeps the expected head count near
//     n·p as the cool-off shrinks the candidate pool.
//  2. The base station vetoes any self-elected node whose persisted trust
//     index is below the eligibility threshold (TIBFIT's addition: "the TI
//     of the node has to be higher than a threshold value to ensure that
//     only sufficiently trusted nodes can become CHs") and re-initiates
//     election if nobody survives the veto.
//  3. Elected heads advertise; every other node affiliates with the head
//     whose advertisement arrives with the strongest received signal.
//  4. An outgoing head uploads its trust table to the base station; an
//     incoming head downloads the state for its cluster.
package leach

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/radio"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sparse"
)

// Config parameterizes elections.
type Config struct {
	// HeadFraction is LEACH's p: the desired fraction of nodes serving as
	// cluster heads in any round.
	HeadFraction float64
	// TIThreshold is the minimum persisted trust index a node needs to be
	// eligible for cluster headship (TIBFIT's addition to LEACH).
	TIThreshold float64
	// MaxRetries bounds how many times an election is re-initiated when
	// every self-elected candidate is vetoed or nobody self-elects;
	// afterwards the station appoints the most trusted eligible node
	// directly. Zero means a sensible default.
	MaxRetries int
	// MinHeads re-initiates an election that produced fewer heads than
	// this floor (LEACH's Bernoulli draws leave a long lower tail, and a
	// round with too few heads builds clusters too large for their
	// members to out-vote). Zero or one keeps the historical behaviour:
	// any non-empty head set stands.
	MinHeads int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HeadFraction <= 0 || c.HeadFraction > 1 {
		return fmt.Errorf("leach: HeadFraction must be in (0,1], got %v", c.HeadFraction)
	}
	if c.TIThreshold < 0 || c.TIThreshold >= 1 {
		return fmt.Errorf("leach: TIThreshold must be in [0,1), got %v", c.TIThreshold)
	}
	if c.MinHeads < 0 {
		return fmt.Errorf("leach: MinHeads must be non-negative, got %d", c.MinHeads)
	}
	return nil
}

const defaultMaxRetries = 8

// DefaultHeadRemovalThreshold quarantines a cluster head once its
// station-side trust index falls to or below this value. It applies
// when the node-trust params leave RemovalThreshold at zero (isolation
// disabled for sensing nodes): a head aggregates for a whole cluster,
// so the station cannot afford to leave head misbehaviour unpunished.
const DefaultHeadRemovalThreshold = 0.5

// defaultSealKey stands in for the provisioned station↔head secret a
// real deployment would burn into each mote; the simulation needs only
// that issuer and verifier agree and tamperers do not know it.
const defaultSealKey = 0x7153_b175_b45e_57a7

// ErrSnapshotReplay marks a sealed snapshot that authenticated fine but
// is the wrong blob: a re-upload of station-issued state, or state from
// an earlier term than the one the station issued to that head.
var ErrSnapshotReplay = errors.New("leach: snapshot replayed or stale")

// Station is the base station: the durable home of trust state between
// cluster-head terms and the authority that vetoes untrusted candidates.
// It also keeps its own trust index per cluster *head* (scored from
// shadow-panel escalations, heartbeat anomalies, and ground-truth
// feedback — see internal/network) and verifies sealed trust-state
// blobs at handoff so a Byzantine head cannot poison or replay the
// persisted state.
type Station struct {
	params core.Params
	// trust is the persisted per-node ledger. At field scale the station
	// sees every node in the deployment, so it lives in a CSR-style
	// sparse vector (internal/sparse): O(live entries) memory, in-order
	// iteration, and cluster-filtered exports that binary-search only the
	// handful of IDs a head actually needs.
	trust sparse.Vector[core.Record]
	// mergeIDs/mergeVals are reusable scratch for canonicalizing map
	// uploads before the sorted merge into trust.
	mergeIDs  []int
	mergeVals []core.Record

	// chTrust scores cluster heads, under the same §3 rule as sensing
	// nodes but with isolation (= quarantine) always enabled.
	chTrust *core.Table

	// Sealed-handoff state: the shared checksum key, the monotonically
	// increasing issue sequence, and the version each serving head was
	// issued (consumed by its term-end upload).
	sealKey       uint64
	seq           uint64
	issuedVersion map[int]uint64
}

// NewStation returns a base station persisting trust under params.
func NewStation(params core.Params) (*Station, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	headParams := params
	//lint:allow floateq zero is the exact "isolation disabled" sentinel, not a computed value
	if headParams.RemovalThreshold == 0 {
		headParams.RemovalThreshold = DefaultHeadRemovalThreshold
	}
	return &Station{
		params:        params,
		chTrust:       core.MustNewTable(headParams),
		sealKey:       defaultSealKey,
		issuedVersion: make(map[int]uint64),
	}, nil
}

// JudgeHead applies one station-side verdict on a cluster head's
// behaviour — a shadow-panel escalation, a missed-heartbeat anomaly, or
// a decision checked against ground truth — under the same §3 update
// rule that scores sensing nodes.
func (s *Station) JudgeHead(id int, correct bool) { s.chTrust.Judge(id, correct) }

// HeadTI returns the station's trust index for a cluster head (1 if the
// head has never been judged).
func (s *Station) HeadTI(id int) float64 { return s.chTrust.TI(id) }

// HeadQuarantined reports whether the head's trust crossed the
// quarantine threshold (or it was quarantined directly).
func (s *Station) HeadQuarantined(id int) bool { return s.chTrust.Isolated(id) }

// QuarantineHead isolates a head immediately — the station's response
// to unforgeable evidence (a rejected snapshot) that should not be
// diluted through gradual penalties.
func (s *Station) QuarantineHead(id int) { s.chTrust.Isolate(id) }

// QuarantinedHeads returns the sorted IDs of all quarantined heads.
func (s *Station) QuarantinedHeads() []int { return s.chTrust.IsolatedNodes() }

// Issue seals the current persisted trust state for a newly appointed
// head: RoleIssue, a fresh version number the station remembers so the
// head's eventual term-end upload must carry it back.
func (s *Station) Issue(head int) []byte {
	s.seq++
	s.issuedVersion[head] = s.seq
	return core.SealSnapshot(s.sealKey, s.seq, core.RoleIssue, s.Snapshot())
}

// IssueFor is Issue restricted to the given node IDs — what a head with a
// known member list is actually owed (§2: the CH "requests the base
// station for TI information for nodes in its cluster"). Sealing a
// 10-node cluster's records instead of the whole field keeps handoff
// O(cluster), and the version bookkeeping is identical to Issue.
func (s *Station) IssueFor(head int, members []int) []byte {
	s.seq++
	s.issuedVersion[head] = s.seq
	return core.SealSnapshot(s.sealKey, s.seq, core.RoleIssue, s.SnapshotFor(members))
}

// StoreSealed verifies and merges a retiring head's sealed trust
// upload. It rejects — with a wrapped error, and without touching the
// persisted state — blobs that fail authentication (ErrSnapshotCorrupt:
// tampered, truncated, mis-keyed) and blobs that authenticate but are
// replays (ErrSnapshotReplay: a re-upload of the issued blob itself, a
// stale version, or an upload from a head that was never issued one).
// A successful upload consumes the issued version, so uploading twice
// is itself a replay.
func (s *Station) StoreSealed(head int, blob []byte) error {
	version, role, recs, err := core.OpenSnapshot(s.sealKey, blob)
	if err != nil {
		return fmt.Errorf("leach: verifying snapshot from head %d: %w", head, err)
	}
	if role != core.RoleUpload {
		return fmt.Errorf("leach: head %d re-uploaded issued state: %w", head, ErrSnapshotReplay)
	}
	issued, ok := s.issuedVersion[head]
	if !ok {
		return fmt.Errorf("leach: head %d uploaded version %d but holds no issued snapshot: %w",
			head, version, ErrSnapshotReplay)
	}
	if version != issued {
		return fmt.Errorf("leach: head %d uploaded version %d, issued %d: %w",
			head, version, issued, ErrSnapshotReplay)
	}
	delete(s.issuedVersion, head)
	s.StoreSnapshot(recs)
	return nil
}

// SealKey returns the station's checksum key, for heads sealing their
// term-end uploads (and for tests forging tampered blobs).
func (s *Station) SealKey() uint64 { return s.sealKey }

// IssuedVersion returns the version the station expects back from the
// head's term-end upload (0 if none is outstanding).
func (s *Station) IssuedVersion(head int) uint64 { return s.issuedVersion[head] }

// StoreSnapshot merges an outgoing cluster head's trust table into the
// station's persisted state (§2: the CH "sends the aggregate TI
// information that it has gathered ... to the base station before ending
// its leadership").
func (s *Station) StoreSnapshot(snap map[int]core.Record) {
	if len(snap) == 0 {
		return
	}
	ids := s.mergeIDs[:0]
	for id := range snap {
		ids = append(ids, id)
	}
	sparse.SortIDs(ids)
	vals := s.mergeVals[:0]
	for _, id := range ids {
		vals = append(vals, snap[id])
	}
	s.mergeIDs, s.mergeVals = ids, vals
	s.trust.MergeSorted(ids, vals)
}

// NewTable builds a trust table for a newly elected cluster head from the
// persisted state (§2: a newly elected CH "requests the base station for
// TI information for nodes in its cluster").
func (s *Station) NewTable() *core.Table {
	t := core.MustNewTable(s.params)
	t.Restore(s.Snapshot())
	return t
}

// Snapshot returns a copy of the persisted trust state, for restoring into
// a newly constructed decision scheme (the generalization of NewTable to
// any trust-carrying scheme).
func (s *Station) Snapshot() map[int]core.Record {
	out := make(map[int]core.Record, s.trust.Len())
	s.trust.Scan(func(id int, r *core.Record) bool {
		out[id] = *r
		return true
	})
	return out
}

// SnapshotFor returns the persisted records for the given node IDs only —
// the member-filtered export a cluster head actually needs. Restoring a
// small cluster's scheme from a million-node ledger must not copy the
// other records; IDs the station has never seen are simply absent (they
// carry full default trust). It returns nil when the station holds none
// of the IDs, which every Restore reads as an empty snapshot: at set-up
// no cluster has a record yet, and an empty map per cluster is waste.
func (s *Station) SnapshotFor(ids []int) map[int]core.Record {
	var out map[int]core.Record
	for _, id := range ids {
		if r := s.trust.Find(id); r != nil {
			if out == nil {
				out = make(map[int]core.Record, len(ids))
			}
			out[id] = *r
		}
	}
	return out
}

// TI returns the persisted trust index for a node (1 if never reported).
//
//hot:path
func (s *Station) TI(nodeID int) float64 {
	if r := s.trust.Find(nodeID); r != nil {
		return s.params.TrustOf(r.V)
	}
	return 1
}

// Eligible reports whether the node's persisted trust passes the
// threshold and it is not isolated — as a sensing node or, since the
// station also scores heads, as a quarantined former head (quarantine
// would be pointless if the next election could hand the aggregation
// point straight back).
func (s *Station) Eligible(nodeID int, threshold float64) bool {
	if s.chTrust.Isolated(nodeID) {
		return false
	}
	if r := s.trust.Find(nodeID); r != nil && r.Isolated {
		return false
	}
	return s.TI(nodeID) >= threshold
}

// Result is the outcome of one election round.
type Result struct {
	// Heads are the elected cluster heads, sorted by ID.
	Heads []int
	// Affiliation is indexed by node ID: the head each non-head node
	// chose, or -1 for a head and for a node that heard no head.
	Affiliation []int
	// Vetoed lists self-elected candidates the station rejected on trust
	// grounds this round.
	Vetoed []int
	// Retries is how many re-initiations the round needed.
	Retries int
	// Appointed indicates the station had to appoint a head directly
	// after exhausting retries.
	Appointed bool
}

// Clusters groups node IDs by their head, including the head itself.
// It walks the IDs in ascending order, so each member list comes out
// sorted and its backing array is built identically on every run. A
// counting pass sizes every list first, and the lists share one backing
// array, each capped at its own length: they hold exactly the IDs.
func (r Result) Clusters() map[int][]int {
	sizes := make(map[int]int, len(r.Heads))
	for _, h := range r.Heads {
		sizes[h] = 0
	}
	owner := func(id int) int {
		if h := r.Affiliation[id]; h >= 0 {
			return h
		}
		if _, isHead := sizes[id]; isHead {
			return id
		}
		return -1
	}
	total := 0
	for id := range r.Affiliation {
		if h := owner(id); h >= 0 {
			sizes[h]++
			total++
		}
	}
	backing := make([]int, total)
	out := make(map[int][]int, len(r.Heads))
	for _, h := range r.Heads {
		out[h], backing = backing[:0:sizes[h]], backing[sizes[h]:]
	}
	for id := range r.Affiliation {
		if h := owner(id); h >= 0 {
			out[h] = append(out[h], id)
		}
	}
	return out
}

// Election runs LEACH rounds over a fixed node population.
type Election struct {
	cfg     Config
	station *Station
	channel *radio.Channel
	src     *rng.Source
	nodes   []*node.Node // nodes[id] carries ID id
	round   int
	// lastled[id] is one past the round node id last served in, so 0
	// means never led and a term recorded before the first Run (round 0)
	// still counts for the cool-off.
	lastled  []int32
	liveness func(int) bool

	// headGrid indexes the advertising heads each round so affiliation is
	// a range-limited nearest query per member instead of a member×head
	// pairwise scan; headPts is its reusable position scratch.
	headGrid *geo.Grid
	headPts  []geo.Point
}

// SetLiveness installs a predicate consulted during eligibility checks and
// appointments: a node for which it returns false (crashed, partitioned)
// can neither self-elect nor be appointed. A nil predicate (the default)
// treats every node as up, preserving pre-fault behaviour.
func (e *Election) SetLiveness(up func(int) bool) { e.liveness = up }

func (e *Election) up(id int) bool { return e.liveness == nil || e.liveness(id) }

// NewElection returns an election controller. The channel is used only for
// its signal-strength model during affiliation. Node IDs are dense: the
// node at index i must carry ID i, so every per-node table is a slice
// indexed by ID. A population that breaks this is rejected with an error
// naming the first index that does.
func NewElection(cfg Config, station *Station, channel *radio.Channel,
	nodes []*node.Node, src *rng.Source) (*Election, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if station == nil || channel == nil || src == nil {
		return nil, fmt.Errorf("leach: station, channel, and rng are required")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("leach: need at least one node")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	for i, n := range nodes {
		if n.ID() != i {
			return nil, fmt.Errorf("leach: node at index %d has ID %d; node IDs must equal their index", i, n.ID())
		}
	}
	return &Election{
		cfg:      cfg,
		station:  station,
		channel:  channel,
		src:      src,
		nodes:    nodes,
		lastled:  make([]int32, len(nodes)),
		headGrid: geo.NewGrid(),
	}, nil
}

// Round returns the number of completed election rounds.
func (e *Election) Round() int { return e.round }

// Run executes one election round and returns its result.
func (e *Election) Run() Result {
	e.round++
	var res Result
	cooloff := int(1 / e.cfg.HeadFraction)
	// Classic LEACH threshold: within each epoch of 1/p rounds, the
	// self-election probability ramps as T = p / (1 - p·(r mod 1/p)).
	// The cool-off shrinks the eligible pool every round of the epoch;
	// without the ramp the expected head count sags from n·p toward
	// n·p² by the epoch's last round, leaving clusters too large for
	// their members to out-vote. Round 1 has T = p exactly, so
	// single-election campaigns are unaffected.
	threshold := e.cfg.HeadFraction /
		(1 - e.cfg.HeadFraction*float64((e.round-1)%cooloff))
	if threshold > 1 {
		threshold = 1
	}
	for attempt := 0; ; attempt++ {
		var heads []int
		for _, n := range e.nodes {
			if !e.eligibleNode(n, cooloff) {
				continue
			}
			p := threshold
			if b := n.Battery(); b != nil {
				p *= b.Fraction()
			}
			if !e.src.Bernoulli(p) {
				continue
			}
			// Base-station veto on trust grounds (§2: "the central base
			// station will cancel this node's effort to become a CH").
			if !e.station.Eligible(n.ID(), e.cfg.TIThreshold) {
				res.Vetoed = append(res.Vetoed, n.ID())
				continue
			}
			heads = append(heads, n.ID())
		}
		if len(heads) > 0 && (len(heads) >= e.cfg.MinHeads || attempt >= e.cfg.MaxRetries) {
			sort.Ints(heads)
			res.Heads = heads
			break
		}
		if attempt >= e.cfg.MaxRetries {
			if id, ok := e.appoint(); ok {
				res.Heads = []int{id}
				res.Appointed = true
			}
			break
		}
		res.Retries++
	}
	res.Affiliation = e.affiliate(res.Heads)
	for _, h := range res.Heads {
		e.MarkLed(h)
	}
	sort.Ints(res.Vetoed)
	return res
}

// eligibleNode applies LEACH's rotation rule: a node that has led within
// the cool-off window sits out, and a dead battery disqualifies.
func (e *Election) eligibleNode(n *node.Node, cooloff int) bool {
	if led := e.lastled[n.ID()]; led > 0 && e.round-int(led-1) < cooloff {
		return false
	}
	if b := n.Battery(); b != nil && !b.Alive() {
		return false
	}
	return e.up(n.ID())
}

// appoint is the station's fallback: pick the eligible node with the
// highest persisted trust (energy as tiebreaker).
func (e *Election) appoint() (int, bool) {
	ids := make([]int, len(e.nodes))
	for id := range ids {
		ids[id] = id
	}
	return e.AppointAmong(ids)
}

// AppointAmong runs the station's appointment ranking — highest persisted
// trust, residual energy as tiebreaker — over an explicit candidate set,
// skipping dead, down, and trust-vetoed nodes. It is the emergency
// re-election used when a serving head crashes mid-term: no new LEACH
// round, just the most trusted surviving member of the same cluster. The
// bool is false when no candidate qualifies.
func (e *Election) AppointAmong(ids []int) (int, bool) {
	bestID, bestTI, bestEnergy := -1, -1.0, -1.0
	for _, id := range ids {
		n := e.nodeByID(id)
		if n == nil || !e.up(id) {
			continue
		}
		if b := n.Battery(); b != nil && !b.Alive() {
			continue
		}
		if !e.station.Eligible(id, e.cfg.TIThreshold) {
			continue
		}
		ti := e.station.TI(id)
		energy := 1.0
		if b := n.Battery(); b != nil {
			energy = b.Fraction()
		}
		//lint:allow floateq argmax tie-break over values that are bit-identical across runs
		if ti > bestTI || (ti == bestTI && energy > bestEnergy) {
			bestID, bestTI, bestEnergy = id, ti, energy
		}
	}
	return bestID, bestID >= 0
}

// MarkLed records an out-of-round leadership term (a failover appointment)
// so the LEACH cool-off applies to emergency heads as it does to elected
// ones.
func (e *Election) MarkLed(id int) {
	if n := e.nodeByID(id); n != nil {
		e.lastled[id] = int32(e.round + 1)
		n.MarkCH()
	}
}

// affiliate assigns every non-head node to the head whose advertisement it
// receives most strongly (§2: "affiliates itself with a single CH based on
// the strength of the signal received").
//
// The heads are indexed in a spatial grid and each member runs one
// nearest query keyed by -RSS(distance) — RSS is non-increasing in
// distance, so minimizing that key over an expanding cell-ring search is
// the historical member×head argmax scan, bit for bit: the grid breaks
// equal-key ties (the sub-1-unit RSS clamp, float plateaus of the
// path-loss log) toward the smaller head index, which is exactly the
// first-strict-winner rule of the old loop over heads in ascending ID
// order. This turns O(members × heads) affiliation into
// O(members × candidate cells) — the difference between hours and
// seconds on a million-node, ten-thousand-head field.
//
// heads must be ascending node IDs, as Run produces them.
func (e *Election) affiliate(heads []int) []int {
	out := make([]int, len(e.nodes))
	for id := range out {
		out[id] = -1
	}
	if len(heads) == 0 {
		return out
	}
	pts := e.headPts[:0]
	for _, h := range heads {
		pts = append(pts, e.nodes[h].Pos())
	}
	e.headPts = pts
	e.headGrid.Rebuild(pts, geo.AutoCell(pts))
	rssKey := func(d float64) float64 { return -e.channel.RSS(d) }
	next := 0 // heads[next] is the first head not below the current ID
	for id, n := range e.nodes {
		if next < len(heads) && heads[next] == id {
			next++
			continue
		}
		if idx, ok := e.headGrid.NearestByDist(n.Pos(), rssKey); ok {
			out[id] = heads[idx]
		}
	}
	return out
}

// nodeByID returns the node with the given ID, or nil if there is none.
func (e *Election) nodeByID(id int) *node.Node {
	if id < 0 || id >= len(e.nodes) {
		return nil
	}
	return e.nodes[id]
}
