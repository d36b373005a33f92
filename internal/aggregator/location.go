package aggregator

import (
	"fmt"
	"slices"
	"sort"

	"github.com/tibfit/tibfit/internal/cluster"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/sparse"
	"github.com/tibfit/tibfit/internal/trace"
)

// LocationConfig configures a location-determination aggregator.
type LocationConfig struct {
	// Tout is the aggregation window (and per-circle timer) length.
	Tout sim.Duration
	// RError is the localization tolerance r_error: the radius of event
	// clusters and the bound within which a detection counts as correct.
	RError float64
	// SenseRadius is r_s: nodes within this distance of an event are its
	// event neighbors and are expected to report it.
	SenseRadius float64
	// Concurrent enables the §3.3 circle protocol, which separates events
	// that occur within T_out of each other. When false, the aggregator
	// uses a single window per quiet period (§3.2's simplifying
	// assumption that events are at least T_out apart).
	Concurrent bool
	// TrustWeightedCentroid declares each accepted event at the
	// trust-weighted average of its cluster's report locations instead of
	// the plain center of gravity. This is an extension beyond the paper
	// (in the spirit of Wagner's resilient aggregation, the paper's ref
	// [10]): reports from distrusted nodes that survived clustering stop
	// dragging the declared location. The vote itself is unchanged.
	TrustWeightedCentroid bool

	// Clusterer, when non-nil, is a shared clustering engine whose scratch
	// buffers are reused across aggregation rounds (and across aggregators,
	// when several cluster heads run on one single-threaded kernel). Nil
	// gives the aggregator a private one.
	Clusterer *cluster.Clusterer

	// CoincidenceGuard, when positive, is the §7 "more robust against
	// level 2" extension: reports whose locations are mutually within
	// this distance are implausibly coincident — honest location noise
	// (σ ≥ 1.6 in Table 2) makes even two reports landing within half a
	// unit of each other a percent-level coincidence, and a whole clique
	// essentially impossible — so each coincident group contributes the
	// weight of its single most trusted member to the vote: a clique
	// that speaks with one voice is one witness, not many. Groups still
	// receive individual verdicts afterwards. Zero disables the guard
	// (the paper's protocol).
	CoincidenceGuard float64
}

// Validate reports whether the configuration is usable.
func (c LocationConfig) Validate() error {
	switch {
	case c.Tout <= 0:
		return fmt.Errorf("aggregator: Tout must be positive, got %v", c.Tout)
	case c.RError <= 0:
		return fmt.Errorf("aggregator: RError must be positive, got %v", c.RError)
	case c.SenseRadius <= 0:
		return fmt.Errorf("aggregator: SenseRadius must be positive, got %v", c.SenseRadius)
	default:
		return nil
	}
}

// Candidate is the vote result for one event cluster.
type Candidate struct {
	// Loc is the cluster's center of gravity — the declared event
	// location when Occurred is true.
	Loc geo.Point
	// Occurred is the CTI vote outcome.
	Occurred bool
	// Decision is the underlying vote.
	Decision core.BinaryDecision
	// RangeViolators are reporters whose own position is farther than the
	// sensing radius from the candidate location — a detectable false
	// alarm ("reports an event outside of its sensing radius", §2.1).
	// They are judged faulty without joining the vote.
	RangeViolators []int
}

// String summarizes the candidate for traces.
func (c Candidate) String() string {
	return fmt.Sprintf("loc=%v occurred=%t ctiFor=%.2f ctiAgainst=%.2f violators=%d",
		c.Loc, c.Occurred, c.Decision.CTIFor, c.Decision.CTIAgainst, len(c.RangeViolators))
}

// LocationOutcome describes one completed aggregation round: every
// candidate event cluster the reports formed and the verdicts rendered.
// Each round's Candidates and their RangeViolators are new arrays (one
// of each per round), so a consumer may keep an outcome.
type LocationOutcome struct {
	TriggerTime sim.Time
	DecideTime  sim.Time
	Candidates  []Candidate
}

// Declared returns the locations of candidates the vote accepted.
func (o LocationOutcome) Declared() []geo.Point {
	var out []geo.Point
	for _, c := range o.Candidates {
		if c.Occurred {
			out = append(out, c.Loc)
		}
	}
	return out
}

// Location is the §3.2/§3.3 location-determination aggregator.
type Location struct {
	pipeline
	cfg       LocationConfig
	onDecide  func(LocationOutcome)
	clusterer *cluster.Clusterer

	// ids and pos are the CH's knowledge of node locations (§2: "the
	// locations of the nodes at a given time are known to the CHs"),
	// fixed for the aggregator's lifetime: ids the ascending members,
	// pos[id] the position of node id. Both belong to the caller and are
	// shared, not copied.
	ids []int
	pos []geo.Point

	// Single-window mode state (the window lifecycle itself lives in the
	// shared pipeline). pending collects the open window's reports; spare
	// is the buffer the previous round decided, handed back as the next
	// pending so rounds stop regrowing the slice. Nothing keeps a round's
	// reports past decideGroup: dedupe works in place and the clusterer
	// copies them into its own scratch.
	pending []cluster.Report
	spare   []cluster.Report

	// Concurrent mode state.
	circles *cluster.CircleSet

	// scr is per-round working storage, reused across aggregation rounds
	// so the decide path stops allocating maps and slices per event. The
	// aggregator is single-threaded (one per cluster head on one kernel),
	// so one scratch set suffices; anything that escapes into a Candidate
	// is copied out exactly sized.
	scr locScratch
}

// locScratch collects every map and slice the decide path fills and drops
// within one round.
type locScratch struct {
	seen      map[int]bool // dedupeByNode
	members   []int
	violators []int
	silent    []int
	inSide    map[int]bool // guardedCTI
	reps      []cluster.Report
	parent    []int
	groupMax  map[int]float64
	roots     []int
	pts       []geo.Point // trustWeightedCenter
	weights   []float64
	ctis      []float64 // decideGroup sort keys
	order     byCTI
}

// byCTI sorts clusters by descending cumulative trust, carrying the
// precomputed keys along with their clusters.
type byCTI struct {
	clusters []cluster.EventCluster
	cti      []float64
}

func (s byCTI) Len() int           { return len(s.clusters) }
func (s byCTI) Less(i, j int) bool { return s.cti[i] > s.cti[j] }
func (s byCTI) Swap(i, j int) {
	s.clusters[i], s.clusters[j] = s.clusters[j], s.clusters[i]
	s.cti[i], s.cti[j] = s.cti[j], s.cti[i]
}

// resetBoolSet returns m emptied for reuse, allocating only on first use.
func resetBoolSet(m map[int]bool, sizeHint int) map[int]bool {
	if m == nil {
		//lint:allow hotalloc built on the first round, then cleared and reused
		return make(map[int]bool, sizeHint)
	}
	clear(m)
	return m
}

// NewLocation returns a location aggregator for the cluster whose
// members are the ascending node IDs members, running the given decision
// scheme on the given clock (the simulation kernel in batch runs; any
// other Clock driver online). pos is a position table indexed by node ID,
// typically the whole field's. The aggregator keeps both slices without
// copying them, so neither may change while it runs.
func NewLocation(cfg LocationConfig, scheme decision.Scheme, clock Clock, members []int, pos []geo.Point,
	onDecide func(LocationOutcome), feedback Feedback, tr *trace.Trace) (*Location, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scheme == nil || clock == nil || pos == nil {
		return nil, fmt.Errorf("aggregator: scheme, clock, and positions are required")
	}
	for i, id := range members {
		if id < 0 || id >= len(pos) {
			return nil, fmt.Errorf("aggregator: member %d has no position (table of %d)", id, len(pos))
		}
		if i > 0 && id <= members[i-1] {
			return nil, fmt.Errorf("aggregator: members must be ascending and distinct, got %d after %d", id, members[i-1])
		}
	}
	l := &Location{
		pipeline: pipeline{
			scheme:   scheme,
			clock:    clock,
			feedback: feedback,
			tr:       tr,
		},
		cfg:       cfg,
		onDecide:  onDecide,
		clusterer: cfg.Clusterer,
		ids:       members,
		pos:       pos,
	}
	l.expire = l.closeWindow
	if l.clusterer == nil {
		l.clusterer = cluster.NewClusterer()
	}
	if cfg.Concurrent {
		l.circles = cluster.NewCircleSet(cfg.RError, cfg.Tout)
	}
	return l, nil
}

// Rounds returns how many aggregation rounds have completed.
func (l *Location) Rounds() int { return l.decided }

// position returns the node's known position and whether the node is known.
// On a contiguous member range (a grid campaign's clusters) sparse.Search
// is one probe.
func (l *Location) position(nodeID int) (geo.Point, bool) {
	if _, ok := sparse.Search(l.ids, nodeID); !ok {
		return geo.Point{}, false
	}
	return l.pos[nodeID], true
}

// Deliver hands the aggregator one location report that survived the
// channel: the sender and the polar offset it transmitted. The aggregator
// resolves the offset against the sender's known position (§3.2). Reports
// from unknown or isolated senders are discarded.
//
//hot:path
func (l *Location) Deliver(nodeID int, off geo.Polar) {
	if l.closed {
		return
	}
	origin, ok := l.position(nodeID)
	if !ok || l.scheme.Isolated(nodeID) {
		return
	}
	rep := cluster.Report{Node: nodeID, Loc: geo.FromPolar(origin, off)}
	if l.tr.Verbose() {
		//lint:allow hotalloc formatting only when the trace keeps or streams records
		l.tr.Emit(float64(l.clock.Now()), trace.KindReportDelivered, nodeID, "loc=%v", rep.Loc)
	} else {
		l.tr.Hit(trace.KindReportDelivered)
	}
	if l.cfg.Concurrent {
		l.deliverConcurrent(rep)
		return
	}
	l.openWindow(l.cfg.Tout)
	l.pending = append(l.pending, rep)
}

// deliverConcurrent routes the report through the §3.3 circle protocol,
// scheduling a collection pass at each new circle's deadline.
func (l *Location) deliverConcurrent(rep cluster.Report) {
	c, isNew := l.circles.Add(rep, l.clock.Now())
	if isNew {
		trigger := l.clock.Now()
		deadline := c.Deadline
		l.clock.AfterFunc(deadline.Sub(l.clock.Now()), func() {
			for _, group := range l.circles.Collect(l.clock.Now()) {
				l.decideGroup(group, trigger)
			}
		})
	}
}

// closeWindow ends a single-mode window and decides its reports.
//
//hot:path
func (l *Location) closeWindow() {
	reports := l.pending
	l.pending, l.spare = l.spare[:0], reports
	l.windowOpen = false
	l.decideGroup(reports, l.windowTrigger)
}

// decideGroup decides one group of reports unless the aggregator died
// before its deadline fired.
//
// decideGroup is the heart of location-mode TIBFIT: cluster the reports,
// then hold one trust vote per candidate cluster.
//
// For each candidate (strongest cumulative trust first):
//
//   - Reporters whose own position is farther than the sensing radius from
//     the candidate location are judged faulty outright — the CH knows node
//     positions, so claiming an event one could not have sensed is a
//     self-evident false alarm (§2.1).
//   - R is the remaining cluster members; NR is every other event neighbor
//     of the candidate location (silent nodes and nodes whose reports
//     placed the event elsewhere — both contradict this candidate).
//   - The higher CTI wins (§3.1 applied per candidate); trust updates and
//     the decision broadcast follow.
//
// A node can receive verdicts from several candidates in one round (e.g.
// correct for its own cluster and faulty as a silent neighbor of a winning
// fabricated cluster) — each candidate is an independent event decision,
// exactly as §3.3 treats concurrent events.
//
// The clusters are the clusterer's storage and the vote's scratch is the
// aggregator's; neither outlives the round. Only the outcome escapes, so
// it gets arrays of its own.
//
//hot:path
func (l *Location) decideGroup(reports []cluster.Report, trigger sim.Time) {
	if l.closed || len(reports) == 0 {
		return
	}
	l.scr.seen = resetBoolSet(l.scr.seen, len(reports))
	reports = dedupeByNode(reports, l.scr.seen)
	clusters := l.clusterer.Cluster(reports, l.cfg.RError)

	// Strongest candidates first: order by cumulative trust of members.
	// The keys are computed once per cluster (weights do not change while
	// sorting); summing in the clusters' node-sorted report order matches
	// core.CTI over Nodes(), which the comparator used to recompute per
	// comparison.
	s := &l.scr
	s.ctis = s.ctis[:0]
	for _, ec := range clusters {
		var cti float64
		for _, r := range ec.Reports {
			cti += l.scheme.Weight(r.Node)
		}
		s.ctis = append(s.ctis, cti)
	}
	s.order = byCTI{clusters, s.ctis}
	sort.Stable(&s.order)

	out := LocationOutcome{TriggerTime: trigger, DecideTime: l.clock.Now()}
	out.Candidates = make([]Candidate, len(clusters))
	s.violators = s.violators[:0]
	verbose := l.tr.Verbose()
	for i, ec := range clusters {
		out.Candidates[i] = l.decideCandidate(ec)
		if verbose {
			//lint:allow hotalloc formatting only when the trace keeps or streams records
			l.tr.Emit(float64(l.clock.Now()), trace.KindDecision, -1, "%v", out.Candidates[i])
		} else {
			l.tr.Hit(trace.KindDecision)
		}
	}
	// The violator lists alias the round's scratch; move them all into
	// one array of the outcome's own.
	if len(s.violators) > 0 {
		own := slices.Clone(s.violators)
		for i := range out.Candidates {
			c := &out.Candidates[i]
			if n := len(c.RangeViolators); n > 0 {
				c.RangeViolators, own = own[:n:n], own[n:]
			}
		}
	}
	l.decided++
	if l.onDecide != nil {
		l.onDecide(out)
	}
}

// decideCandidate votes on a single event cluster. ec.Reports are in
// ascending node order (cluster.Clusterer builds them so), which keeps the
// member and violator lists ascending too. The candidate's violators are
// appended to l.scr.violators, and its RangeViolators alias them (nil
// when there are none) until decideGroup copies them out.
//
//hot:path
func (l *Location) decideCandidate(ec cluster.EventCluster) Candidate {
	cg := ec.Center
	// A reporter whose own position is beyond r_s + r_error of the
	// candidate location could not have sensed any event this cluster
	// might represent: the true event lies within r_error of the center
	// of gravity, and sensing reaches r_s. The slack of r_error keeps
	// borderline-but-honest neighbors out of the violator set.
	maxSense := l.cfg.SenseRadius + l.cfg.RError
	s := &l.scr
	s.members = s.members[:0]
	first := len(s.violators)
	for _, rep := range ec.Reports {
		p, ok := l.position(rep.Node)
		if !ok {
			continue
		}
		if p.Dist(cg) > maxSense {
			s.violators = append(s.violators, rep.Node)
			continue
		}
		s.members = append(s.members, rep.Node)
	}
	// Event neighbors of the candidate location that are not members of
	// this cluster vote against it: silence and contradictory reports
	// both count as "did not confirm this event". The members are an
	// ascending subset of l.ids, so one merged pass skips them.
	s.silent = s.silent[:0]
	rest := s.members
	for _, id := range l.ids {
		if len(rest) > 0 && rest[0] == id {
			rest = rest[1:]
			continue
		}
		if l.pos[id].Dist(cg) <= l.cfg.SenseRadius {
			s.silent = append(s.silent, id)
		}
	}

	// Arbitrate copies both sides, so the scratch slices stay ours to
	// reuse.
	dec := l.scheme.Arbitrate(s.members, s.silent)
	if l.cfg.CoincidenceGuard > 0 {
		// Re-weigh the reporting side with coincident cliques collapsed
		// to their strongest member, then re-decide on the adjusted CTI.
		dec.CTIFor = l.guardedCTI(ec, dec.Reporters)
		dec.Occurred = dec.CTIFor > dec.CTIAgainst
	}
	loc := cg
	if l.cfg.TrustWeightedCentroid && dec.Occurred {
		if w, ok := l.trustWeightedCenter(ec, s.members); ok {
			loc = w
		}
	}
	l.settle(dec)
	var violators []int
	if len(s.violators) > first {
		violators = s.violators[first:]
	}
	for _, id := range violators {
		l.judge(id, false)
	}
	return Candidate{Loc: loc, Occurred: dec.Occurred, Decision: dec, RangeViolators: violators}
}

// guardedCTI sums the reporting side's weights with coincident report
// groups (mutually within CoincidenceGuard) each capped at their single
// heaviest member.
func (l *Location) guardedCTI(ec cluster.EventCluster, reporters []int) float64 {
	s := &l.scr
	s.inSide = resetBoolSet(s.inSide, len(reporters))
	inSide := s.inSide
	for _, id := range reporters {
		inSide[id] = true
	}
	s.reps = s.reps[:0]
	for _, r := range ec.Reports {
		if inSide[r.Node] {
			s.reps = append(s.reps, r)
		}
	}
	reps := s.reps
	// Union-find over coincident pairs.
	s.parent = s.parent[:0]
	for i := range reps {
		s.parent = append(s.parent, i)
	}
	parent := s.parent
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	eps := l.cfg.CoincidenceGuard
	for i := range reps {
		for j := i + 1; j < len(reps); j++ {
			if reps[i].Loc.Dist(reps[j].Loc) <= eps {
				parent[find(i)] = find(j)
			}
		}
	}
	if s.groupMax == nil {
		//lint:allow hotalloc built on the first guarded round, then cleared and reused
		s.groupMax = make(map[int]float64)
	} else {
		clear(s.groupMax)
	}
	groupMax := s.groupMax
	for i, r := range reps {
		root := find(i)
		if w := l.scheme.Weight(r.Node); w > groupMax[root] {
			groupMax[root] = w
		}
	}
	roots := s.roots[:0]
	for root := range groupMax {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	s.roots = roots
	var sum float64
	for _, root := range roots {
		sum += groupMax[root]
	}
	return sum
}

// trustWeightedCenter averages the member reports weighted by the
// reporters' current trust, using pre-settlement weights so this round's
// verdicts do not feed back into its own location estimate. members is
// the ascending subset of ec.Reports' nodes that joined the vote.
func (l *Location) trustWeightedCenter(ec cluster.EventCluster, members []int) (geo.Point, bool) {
	s := &l.scr
	s.pts, s.weights = s.pts[:0], s.weights[:0]
	for _, rep := range ec.Reports {
		if len(members) == 0 || members[0] != rep.Node {
			continue
		}
		members = members[1:]
		s.pts = append(s.pts, rep.Loc)
		s.weights = append(s.weights, l.scheme.Weight(rep.Node))
	}
	return geo.WeightedCentroid(s.pts, s.weights)
}

// dedupeByNode keeps each node's first report in a round; a node sends at
// most one report per event, so duplicates can only arise from replayed
// traffic, which the sink ignores. seen is caller-provided (emptied)
// scratch.
func dedupeByNode(reports []cluster.Report, seen map[int]bool) []cluster.Report {
	out := reports[:0]
	for _, r := range reports {
		if seen[r.Node] {
			continue
		}
		seen[r.Node] = true
		out = append(out, r)
	}
	return out
}
