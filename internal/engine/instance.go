package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/sim"
)

// ErrClosed is returned by operations on a closed instance.
var ErrClosed = errors.New("engine: instance closed")

// ErrUnknownNode is returned when a report names a node outside the
// instance's member set. It is a sentinel (no per-call formatting): the
// rejection sits on the ingest hot path, and the serving layer attaches
// the node ID when it renders the error.
var ErrUnknownNode = errors.New("engine: report from unknown node")

// ErrSnapshotStale is returned by RestoreSealed for a blob that
// authenticated fine but carries a version at or below one already
// restored — the online analogue of the station's replay rejection.
var ErrSnapshotStale = errors.New("engine: snapshot version already restored")

// defaultDecisionLog is the ring capacity for the decision stream when
// Config.DecisionLog is zero: enough for a poller a few seconds behind a
// saturated ingest. The ring grows to it on demand; once full it holds
// 4096 × (48 + 16·⌈members/64⌉) bytes, 256 KiB for a 16-member tenant.
const defaultDecisionLog = 4096

// minDecisionLog is the ring's first allocation; it doubles from there
// up to its cap.
const minDecisionLog = 8

// snapshotHandoff is the pseudo head ID the instance uses when asking
// its station to seal state. Real head IDs are non-negative node IDs;
// the instance itself is "head -1".
const snapshotHandoff = -1

// Config configures one engine instance — one tenant's trust namespace.
type Config struct {
	// Scheme is the decision-scheme name, resolved through the
	// internal/decision registry (tibfit, linear, majority, fuzzy,
	// dynamic-trust; see docs/SCHEMES.md).
	Scheme string
	// Params carries the scheme parameters. Params.Trust must validate
	// (the station persists trust under it).
	Params decision.Params
	// Tout is the aggregation window length T_out, in the clock's
	// virtual units.
	Tout sim.Duration
	// Members is the node population this instance arbitrates over.
	Members []int
	// Clock drives window expiry: a *WallClock for live traffic, a
	// *sim.Kernel for replay and equivalence testing.
	Clock Clock
	// DecisionLog bounds the in-memory decision ring exposed through
	// DecisionPage. Zero means a default of 4096; the ring drops the
	// oldest entries once full (pollers that fall further behind miss
	// them, and DecisionPage's First says how many). The ring grows on
	// demand, so a fresh instance holds none of it, and each retained
	// decision costs 48 + 16·⌈members/64⌉ bytes: a 48-byte record and
	// one bit per member on each side of the vote, in 64-bit words.
	DecisionLog int
	// OnDecision, when non-nil, observes every decision as it is made.
	// Calls run under the instance's lock (never concurrent); the
	// callback must return promptly and must not call back into the
	// instance.
	OnDecision func(Decision)
}

// Decision is one completed arbitration window, as exposed on the
// decision stream: the aggregator outcome plus a per-instance sequence
// number pollers resume from.
type Decision struct {
	// Seq numbers decisions from 1 in decision (deadline) order.
	Seq uint64 `json:"seq"`
	// Trigger and Decided are the window-open time and the window's
	// deadline (Trigger + T_out) on the instance's virtual clock. Decided
	// is when the vote was due, not when a drain got to it.
	Trigger float64 `json:"trigger"`
	Decided float64 `json:"decided"`
	// Occurred is the arbitration verdict; CTIFor/CTIAgainst the two
	// cumulative-trust sides it weighed.
	Occurred   bool    `json:"occurred"`
	CTIFor     float64 `json:"cti_for"`
	CTIAgainst float64 `json:"cti_against"`
	// Reporters and Silent are the two sides of the vote, sorted by ID;
	// an empty side is nil (JSON null). Isolated members are on neither.
	Reporters []int `json:"reporters"`
	Silent    []int `json:"silent"`
}

// TrustEntry is one row of an instance's trust table.
type TrustEntry struct {
	Node     int     `json:"node"`
	TI       float64 `json:"ti"`
	Isolated bool    `json:"isolated"`
}

// BatchResult is the per-item outcome of a ReportMany batch: how many
// reports were accepted, and — when not all were — where acceptance
// first failed. A batch keeps going past unknown nodes (each is one bad
// row, not a poisoned batch), so Accepted counts every valid report
// regardless of where the bad rows sat; a closed instance rejects the
// whole batch with ErrClosed.
type BatchResult struct {
	// Accepted is how many reports the instance ingested.
	Accepted int
	// FirstErr is the index of the first rejected report, -1 when every
	// report was accepted.
	FirstErr int
	// Err is the rejection at FirstErr: ErrUnknownNode or ErrClosed.
	Err error
	// Decisions is how many decisions the instance has made, read under
	// the batch's lock, so a reply needs no second lock to report it.
	Decisions uint64
}

// Instance is one tenant's online decision engine: a decision scheme
// from the registry, one binary aggregation window driven by a Clock,
// and a base-station trust ledger (leach.Station) as the durable home of
// per-node state — the §2 cluster-head machinery re-hosted behind a
// service boundary. A tenant is one event location (paper §3): every
// report joins the same window, and every silent member counts in the
// non-reporting side of the vote.
//
// Windows close when they are due, not when an OS timer wakes: every
// entry point takes the instance's one lock and first closes the window
// if its deadline lies strictly before the clock's now, so a report
// stamped after a deadline opens a new window and a poll after a
// deadline sees its decision. The clock's timer is a backstop for
// tenants nobody touches; it closes the window under the same lock. All
// methods are safe for concurrent use.
type Instance struct {
	clock   Clock
	members []int // sorted copy of the population
	// backstop is what each window's timer holds, and expire its
	// callback, bound once: a method value built per window would
	// allocate.
	backstop *backstop
	expire   func()
	// logCap is the decision ring's capacity (Config.DecisionLog), and
	// voteWords the 64-bit words in one side's bitset over members.
	logCap    int
	voteWords int

	// mu guards everything below.
	mu              sync.Mutex
	scheme          decision.Scheme
	agg             *aggregator.Binary
	station         *leach.Station
	restoredVersion uint64
	// The decision ring: log[(seq-1) % logCap] holds decision seq, and
	// votes holds its two member bitsets at votes[slot*2*voteWords:].
	// Both grow on demand up to logCap entries; their backing arrays
	// hold no pointers, so the GC never scans them.
	log        []ringEntry
	votes      []uint64
	seq        uint64
	onDecision func(Decision)
	reports    uint64
	closed     bool
}

// New builds an instance. The scheme is constructed through the decision
// registry, so unknown names fail with the registry's did-you-mean error.
func New(cfg Config) (*Instance, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("engine: a Clock is required")
	}
	station, err := leach.NewStation(cfg.Params.Trust)
	if err != nil {
		return nil, err
	}
	scheme, err := decision.New(cfg.Scheme, cfg.Params)
	if err != nil {
		return nil, err
	}
	logCap := cfg.DecisionLog
	if logCap <= 0 {
		logCap = defaultDecisionLog
	}
	in := &Instance{
		clock:      cfg.Clock,
		members:    append([]int(nil), cfg.Members...),
		scheme:     scheme,
		station:    station,
		onDecision: cfg.OnDecision,
		logCap:     logCap,
		voteWords:  (len(cfg.Members) + 63) / 64,
	}
	sort.Ints(in.members)
	in.backstop = &backstop{}
	in.backstop.in.Store(in)
	in.expire = in.backstop.expire
	in.agg, err = aggregator.NewBinary(aggregator.BinaryConfig{
		Tout:    cfg.Tout,
		Members: in.members,
	}, scheme, windowClock{in}, in.recordDecision, nil, nil)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// windowClock is the clock the instance hands its aggregator. Its
// AfterFunc, called when a window opens, arms the instance's expire
// instead of the aggregator's own callback, so a timer closes the window
// under the instance's lock, as an entry point does.
type windowClock struct{ in *Instance }

func (c windowClock) Now() sim.Time { return c.in.clock.Now() }

func (c windowClock) AfterFunc(d sim.Duration, _ func()) { c.in.clock.AfterFunc(d, c.in.expire) }

// lock takes the instance's lock and closes the window if its deadline
// lies strictly before the clock's now; every entry point starts here. A
// report stamped exactly at a deadline is not drained against: it joins
// the closing window if it takes the lock before the backstop does (on
// the sim kernel, if it was scheduled first; invariant 8).
//
//hot:path
func (in *Instance) lock() {
	in.mu.Lock()
	if deadline, open := in.agg.Deadline(); open {
		if now := in.clock.Now(); deadline < now {
			in.agg.CloseIfDue(now)
		}
	}
}

// expireDue is the backstop: it closes the window if its deadline is at
// or before now (the sim kernel fires the timer at exactly the
// deadline). A timer whose window an entry point already closed finds
// nothing due.
func (in *Instance) expireDue() {
	in.mu.Lock()
	in.agg.CloseIfDue(in.clock.Now())
	in.mu.Unlock()
}

// backstop points a window's timer at its instance until Close clears
// it, so a timer armed for a far deadline does not keep a closed
// instance, with its decision ring and trust ledger, reachable until it
// wakes.
type backstop struct{ in atomic.Pointer[Instance] }

func (b *backstop) expire() {
	if in := b.in.Load(); in != nil {
		in.expireDue()
	}
}

// ringEntry is one retained decision without its vote, which lives in
// the instance's votes bitsets. It holds no pointers.
type ringEntry struct {
	seq        uint64
	trigger    float64
	decided    float64
	ctiFor     float64
	ctiAgainst float64
	occurred   bool
}

// recordDecision retains a completed window in the decision ring and
// hands it to OnDecision. It runs inside a window close, with the
// instance's lock held. core.DecideBinary returns fresh sorted slices,
// so OnDecision receives them uncopied; an empty side is passed as nil,
// as the ring renders it.
func (in *Instance) recordDecision(o aggregator.BinaryOutcome) {
	in.seq++
	slot := in.slot(in.seq)
	if slot == len(in.log) {
		in.growRing()
	}
	e := ringEntry{
		seq:        in.seq,
		trigger:    float64(o.TriggerTime),
		decided:    float64(o.DecideTime),
		ctiFor:     o.Decision.CTIFor,
		ctiAgainst: o.Decision.CTIAgainst,
		occurred:   o.Decision.Occurred,
	}
	in.log[slot] = e
	vote := in.vote(slot)
	clear(vote)
	markMembers(vote[:in.voteWords], in.members, o.Decision.Reporters)
	markMembers(vote[in.voteWords:], in.members, o.Decision.Silent)
	if in.onDecision != nil {
		in.onDecision(e.decision(nilIfEmpty(o.Decision.Reporters), nilIfEmpty(o.Decision.Silent)))
	}
}

// decision is the entry as the decision stream exposes it, with the
// two sides of its vote.
func (e ringEntry) decision(reporters, silent []int) Decision {
	return Decision{
		Seq:        e.seq,
		Trigger:    e.trigger,
		Decided:    e.decided,
		Occurred:   e.occurred,
		CTIFor:     e.ctiFor,
		CTIAgainst: e.ctiAgainst,
		Reporters:  reporters,
		Silent:     silent,
	}
}

// growRing extends the ring by one slot. When the backing arrays are
// full it doubles them, clamped exactly at logCap. The new arrays are
// made at that size, not appended to: past 256 elements append (and
// slices.Grow) grows by steps of 1.25×, so doubling 2048 slots to 4096
// would allocate 4732.
func (in *Instance) growRing() {
	n := len(in.log)
	if n == cap(in.log) {
		size := min(max(2*n, minDecisionLog), in.logCap)
		log := make([]ringEntry, n, size)
		copy(log, in.log)
		votes := make([]uint64, len(in.votes), 2*in.voteWords*size)
		copy(votes, in.votes)
		in.log, in.votes = log, votes
	}
	in.log = in.log[:n+1]
	in.votes = in.votes[:(n+1)*2*in.voteWords]
}

// slot returns the ring slot of decision seq.
func (in *Instance) slot(seq uint64) int { return int((seq - 1) % uint64(in.logCap)) }

// vote returns the two bitsets of ring slot: reporters, then silent.
func (in *Instance) vote(slot int) []uint64 {
	w := 2 * in.voteWords
	return in.votes[slot*w : (slot+1)*w : (slot+1)*w]
}

// markMembers sets the bit of each of ids' positions in members. Both
// are sorted ascending and ids is a sub-multiset of members (the
// aggregator builds both sides from the member list), so one merged pass
// finds every position, a repeated ID taking the next repeated member.
func markMembers(set []uint64, members, ids []int) {
	i := 0
	for _, id := range ids {
		for i < len(members) && members[i] < id {
			i++
		}
		if i < len(members) && members[i] == id {
			set[i/64] |= 1 << (i % 64)
			i++
		}
	}
}

// renderSide appends the members whose bits are set in set, in
// ascending order, to buf, and returns buf and the appended IDs as a
// full slice of their own (nil when none is set).
func renderSide(buf []int, set []uint64, members []int) ([]int, []int) {
	start := len(buf)
	for w, word := range set {
		for word != 0 {
			buf = append(buf, members[w*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return buf, nilIfEmpty(buf[start:len(buf):len(buf)])
}

// countMembers returns how many bits are set.
func countMembers(set []uint64) int {
	n := 0
	for _, word := range set {
		n += bits.OnesCount64(word)
	}
	return n
}

func nilIfEmpty(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// isMember reports whether node is in the instance's population.
//
//hot:path
func (in *Instance) isMember(node int) bool {
	_, ok := slices.BinarySearch(in.members, node)
	return ok
}

// Report ingests one event report. The first report opens the T_out
// window; the expiry arbitrates. Reports from nodes outside the member
// set are rejected with ErrUnknownNode.
//
//hot:path
func (in *Instance) Report(node int) error {
	in.lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	if !in.isMember(node) {
		return ErrUnknownNode
	}
	in.agg.Deliver(node)
	in.reports++
	return nil
}

// ReportMany ingests a batch — the bulk path the HTTP layer uses — under
// one lock acquisition. Unknown nodes are skipped (the batch continues;
// the serving layer returns partial accept); a closed instance rejects
// the whole batch. The result carries the accepted count, the first
// rejection and the decision count.
//
//hot:path
func (in *Instance) ReportMany(nodes []int) BatchResult {
	in.lock()
	defer in.mu.Unlock()
	res := BatchResult{FirstErr: -1, Decisions: in.seq}
	if in.closed {
		if len(nodes) > 0 {
			res.FirstErr, res.Err = 0, ErrClosed
		}
		return res
	}
	for i, node := range nodes {
		if !in.isMember(node) {
			if res.Err == nil {
				res.FirstErr, res.Err = i, ErrUnknownNode
			}
			continue
		}
		in.agg.Deliver(node)
		res.Accepted++
	}
	in.reports += uint64(res.Accepted)
	return res
}

// SealedSnapshot captures the tenant's trust state as a sealed blob —
// core.SealSnapshot under the station's key, RoleIssue, a fresh
// monotonic version — suitable for RestoreSealed into a later instance.
// The scheme's live state is flushed into the station ledger first, so
// the blob reflects every decision made so far.
func (in *Instance) SealedSnapshot() ([]byte, error) {
	in.lock()
	defer in.mu.Unlock()
	if in.closed {
		return nil, ErrClosed
	}
	if st, ok := in.scheme.(decision.Stateful); ok {
		in.station.StoreSnapshot(st.Snapshot())
	}
	return in.station.IssueFor(snapshotHandoff, in.members), nil
}

// RestoreSealed verifies a sealed blob and merges its trust records into
// the instance: checksum and role are checked first (tampered or
// truncated blobs fail with core.ErrSnapshotCorrupt; a term-end upload
// blob is not restorable state), then the version must exceed any
// already restored (ErrSnapshotStale). On success the station ledger
// absorbs the records and the scheme's live state is rebuilt from the
// members' slice of the ledger.
func (in *Instance) RestoreSealed(blob []byte) error {
	in.lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	version, role, recs, err := core.OpenSnapshot(in.station.SealKey(), blob)
	if err != nil {
		return fmt.Errorf("engine: verifying snapshot: %w", err)
	}
	if role != core.RoleIssue {
		return fmt.Errorf("engine: restore needs station-issued state, got a term-end upload: %w",
			leach.ErrSnapshotReplay)
	}
	if version <= in.restoredVersion {
		return fmt.Errorf("engine: blob version %d, already restored %d: %w",
			version, in.restoredVersion, ErrSnapshotStale)
	}
	in.restoredVersion = version
	in.station.StoreSnapshot(recs)
	if st, ok := in.scheme.(decision.Stateful); ok {
		st.Restore(in.station.SnapshotFor(in.members))
	}
	return nil
}

// DecisionPage is one read of the decision stream, taken under one
// lock acquisition.
type DecisionPage struct {
	// Decisions are the retained decisions with Seq > since, oldest
	// first, at most the page's limit of them; nil when there are none.
	Decisions []Decision
	// First is the oldest seq the ring still holds, or Latest+1 when it
	// holds none. A poller whose since+1 < First missed First−since−1
	// decisions, overwritten once the ring (Config.DecisionLog) was full.
	First uint64
	// Latest is the instance's last seq. A page cut short by its limit
	// ends before it, and the poller resumes from the page's last seq.
	Latest uint64
}

// DecisionPage returns the oldest decisions after since, at most limit of
// them (every one when limit <= 0), with the ring's first retained seq
// and the last seq, all read under the same lock. Each page renders its
// decisions' member IDs from the ring's bitsets into one shared backing
// array.
func (in *Instance) DecisionPage(since uint64, limit int) DecisionPage {
	in.lock()
	defer in.mu.Unlock()
	first := in.seq - uint64(len(in.log)) + 1
	page := DecisionPage{First: first, Latest: in.seq}
	if in.seq <= since {
		return page
	}
	from := max(first, since+1)
	to := in.seq
	if limit > 0 && to-from >= uint64(limit) {
		to = from + uint64(limit) - 1
	}
	ids := 0
	for s := from; s <= to; s++ {
		ids += countMembers(in.vote(in.slot(s)))
	}
	page.Decisions = make([]Decision, to-from+1)
	buf := make([]int, 0, ids)
	for i := range page.Decisions {
		slot := in.slot(from + uint64(i))
		vote := in.vote(slot)
		var reporters, silent []int
		buf, reporters = renderSide(buf, vote[:in.voteWords], in.members)
		buf, silent = renderSide(buf, vote[in.voteWords:], in.members)
		page.Decisions[i] = in.log[slot].decision(reporters, silent)
	}
	return page
}

// DecisionsSince returns every retained decision with Seq > since, oldest
// first: an unlimited DecisionPage without its bounds.
func (in *Instance) DecisionsSince(since uint64) []Decision {
	return in.DecisionPage(since, 0).Decisions
}

// DecisionCount returns how many decisions the instance has made.
func (in *Instance) DecisionCount() uint64 {
	in.lock()
	defer in.mu.Unlock()
	return in.seq
}

// ReportCount returns how many reports the instance has accepted.
func (in *Instance) ReportCount() uint64 {
	in.lock()
	defer in.mu.Unlock()
	return in.reports
}

// Members returns the instance's member IDs, sorted ascending. The
// slice is shared and must not be mutated.
func (in *Instance) Members() []int { return in.members }

// SchemeName returns the canonical name of the instance's scheme.
func (in *Instance) SchemeName() string { return in.scheme.Name() }

// TI returns the scheme's current trust index for a node; a node outside
// the member set reads the default trust.
func (in *Instance) TI(node int) float64 {
	in.lock()
	defer in.mu.Unlock()
	return in.scheme.TI(node)
}

// IsolatedNodes returns the sorted IDs of all isolated nodes.
func (in *Instance) IsolatedNodes() []int {
	in.lock()
	defer in.mu.Unlock()
	return in.scheme.IsolatedNodes()
}

// TrustTable returns one row per member, sorted by node ID — the
// tenant's live trust state as the HTTP layer serves it.
func (in *Instance) TrustTable() []TrustEntry {
	in.lock()
	defer in.mu.Unlock()
	out := make([]TrustEntry, len(in.members))
	for i, id := range in.members {
		out[i] = TrustEntry{Node: id, TI: in.scheme.TI(id), Isolated: in.scheme.Isolated(id)}
	}
	return out
}

// Close shuts the instance down: the open window dies, further reports
// fail with ErrClosed, and a pending timer no longer holds the instance
// and finds nothing to close. Close is idempotent. The clock is left to
// whoever created it.
func (in *Instance) Close() {
	in.mu.Lock()
	in.closed = true
	in.agg.Close()
	in.mu.Unlock()
	in.backstop.in.Store(nil)
}
