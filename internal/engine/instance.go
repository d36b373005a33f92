package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/sparse"
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
// saturated ingest, small enough to be irrelevant in memory.
const defaultDecisionLog = 4096

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
	// Shards partitions the members into that many event locations, each
	// a single-writer shard with its own lock and aggregation window
	// (ShardMembers defines the assignment), so concurrent ingest at
	// different locations never contends. Values outside [1,
	// len(Members)] are clamped; zero means 1, the legacy single-lock
	// single-window instance.
	Shards int
	// Clock drives window expiry: a *WallClock for live traffic, a
	// *sim.Kernel for replay and equivalence testing.
	Clock Clock
	// DecisionLog bounds the in-memory decision ring exposed through
	// DecisionsSince. Zero means a default; the ring drops the oldest
	// entries once full (pollers that fall further behind miss them).
	DecisionLog int
	// OnDecision, when non-nil, observes every decision as it is made.
	// Calls are serialized by the instance's drain lock (never
	// concurrent); the callback must return promptly and must not call
	// back into the instance.
	OnDecision func(Decision)
}

// Decision is one completed arbitration window, as exposed on the
// decision stream: the aggregator outcome plus a per-instance sequence
// number pollers resume from.
type Decision struct {
	// Seq numbers decisions from 1 in decision order: (deadline, window
	// open order) across all shards.
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
	// Reporters and Silent are the two sides of the vote, sorted by ID.
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
// row, not a poisoned batch) and stops only at ErrClosed, so Accepted
// counts every valid report regardless of where the bad rows sat.
type BatchResult struct {
	// Accepted is how many reports the instance ingested.
	Accepted int
	// FirstErr is the index of the first rejected report, -1 when every
	// report was accepted.
	FirstErr int
	// Err is the rejection at FirstErr: ErrUnknownNode or ErrClosed.
	Err error
}

// Instance is one tenant's online decision engine: a decision scheme
// from the registry, a binary aggregation pipeline driven by a Clock,
// and a base-station trust ledger (leach.Station) as the durable home of
// per-node state — the §2 cluster-head machinery re-hosted behind a
// service boundary.
//
// The member population is partitioned into Config.Shards event
// locations (paper §3: aggregation windows close per location), each a
// single-writer shard owning its own scheme state, window, and lock.
// Reports route to their node's shard by binary search and contend only
// with reports for the same location.
//
// Windows close when they are due, not when an OS timer wakes: every
// entry point that touches tenant state first drains each window whose
// deadline lies strictly before the clock's now, so a report stamped
// after a deadline opens a new window and a poll after a deadline sees
// its decision. The clock's timer stays as a backstop for tenants nobody
// touches and runs the same drain. Drains close windows in (deadline,
// window-open order) under one lock, which fans all shards' decisions
// into one totally-ordered ring. All methods are safe for concurrent
// use.
type Instance struct {
	shards  []*shard
	shardOf sparse.Vector[int32] // member ID -> shard index
	clock   Clock

	members []int // sorted copy of the full population

	// stateMu serializes snapshot/restore against each other; each walks
	// the shards in index order under stateMu -> shard.mu.
	stateMu         sync.Mutex
	station         *leach.Station
	restoredVersion uint64

	// drainMu serializes window closes. due is the drain's scratch list
	// of windows to close, guarded by drainMu.
	drainMu sync.Mutex
	due     []dueWindow
	// earliest holds the float64 bits of a lower bound on every open
	// window's deadline (+Inf when none is open): an entry point whose
	// now is not past it has nothing to drain and takes no lock. Opening
	// a window lowers it; only a drain raises it.
	earliest atomic.Uint64
	// opens counts window opens across shards: the tiebreak between
	// coinciding deadlines.
	opens atomic.Uint64

	// ringMu guards the decision ring. Appends happen only inside drains,
	// which drainMu serializes, so the lock exists for reader
	// visibility, not append ordering.
	ringMu     sync.Mutex
	log        []Decision
	seq        uint64
	onDecision func(Decision)

	reports atomic.Uint64
	closed  atomic.Bool
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
	logCap := cfg.DecisionLog
	if logCap <= 0 {
		logCap = defaultDecisionLog
	}
	in := &Instance{
		clock:      cfg.Clock,
		station:    station,
		onDecision: cfg.OnDecision,
		log:        make([]Decision, 0, logCap),
	}
	in.earliest.Store(math.Float64bits(math.Inf(1)))
	parts := ShardMembers(cfg.Members, cfg.Shards)
	in.shards = make([]*shard, len(parts))
	in.due = make([]dueWindow, 0, len(parts))
	for s, part := range parts {
		scheme, err := decision.New(cfg.Scheme, cfg.Params)
		if err != nil {
			return nil, err
		}
		sh := &shard{scheme: scheme, members: part}
		sh.expire = func() { in.expire(sh) }
		agg, err := aggregator.NewBinary(aggregator.BinaryConfig{
			Tout:    cfg.Tout,
			Members: part,
		}, scheme, shardClock{in: in, sh: sh}, in.recordDecision, nil, nil)
		if err != nil {
			return nil, err
		}
		sh.agg = agg
		in.shards[s] = sh
	}
	in.members = append([]int(nil), cfg.Members...)
	sort.Ints(in.members)
	for i, id := range in.members {
		*in.shardOf.Upsert(id) = int32(i % len(in.shards))
	}
	return in, nil
}

// dueWindow is one window a drain closes: its deadline, its window-open
// number, and its shard.
type dueWindow struct {
	at     sim.Time
	opened uint64
	shard  int
}

// cmpDue orders windows by (deadline, window-open order): the order the
// clock's timers would fire their expiries in.
func cmpDue(a, b dueWindow) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.opened, b.opened)
}

// lowerEarliest lowers the earliest-deadline word to deadline if that is
// earlier.
func (in *Instance) lowerEarliest(deadline sim.Time) {
	for {
		old := in.earliest.Load()
		if !(float64(deadline) < math.Float64frombits(old)) {
			return
		}
		if in.earliest.CompareAndSwap(old, math.Float64bits(float64(deadline))) {
			return
		}
	}
}

// drainDue closes every window whose deadline lies strictly before the
// clock's now. Every entry point calls it first. With nothing due it
// costs one Now and one atomic load. A report stamped exactly at a
// deadline is not drained against: whether it joins the closing window
// follows invariant 8's schedule order, as on the sim kernel.
//
//hot:path
func (in *Instance) drainDue() {
	now := in.clock.Now()
	if !(float64(now) > math.Float64frombits(in.earliest.Load())) {
		return
	}
	in.drainMu.Lock()
	in.drainLocked(now, nil)
	in.drainMu.Unlock()
}

// expire is a shard's backstop timer callback: the same drain, plus the
// shard's own window if it is due at or before now (the sim kernel fires
// the timer at exactly the deadline). A timer whose window a drain
// already closed finds nothing due.
func (in *Instance) expire(sh *shard) {
	in.drainMu.Lock()
	in.drainLocked(in.clock.Now(), sh)
	in.drainMu.Unlock()
}

// drainLocked closes, in (deadline, window-open order), every open
// window due strictly before now, plus timer's window if it is due at
// now. Callers hold drainMu. Only drains close windows, so a window
// found open in the scan is still the same open window when its turn to
// close comes.
func (in *Instance) drainLocked(now sim.Time, timer *shard) {
	if in.closed.Load() {
		return
	}
	in.due = in.due[:0]
	next := sim.Time(math.Inf(1))
	for s, sh := range in.shards {
		sh.mu.Lock()
		if deadline, open := sh.agg.Deadline(); open {
			if deadline < now || (sh == timer && deadline <= now) {
				in.due = append(in.due, dueWindow{at: deadline, opened: sh.opened, shard: s})
			} else {
				next = min(next, deadline)
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(in.due, cmpDue)
	for _, w := range in.due {
		sh := in.shards[w.shard]
		sh.mu.Lock()
		if !in.closed.Load() {
			sh.agg.CloseIfDue(now)
		}
		sh.mu.Unlock()
	}
	// Raise the bound to the earliest deadline still open. A window that
	// opened during the drain lowered the word before this store and may
	// have been overwritten, so re-lower from every open window.
	in.earliest.Store(math.Float64bits(float64(next)))
	for _, sh := range in.shards {
		sh.mu.Lock()
		if deadline, open := sh.agg.Deadline(); open {
			in.lowerEarliest(deadline)
		}
		sh.mu.Unlock()
	}
}

// recordDecision appends a completed window to the decision ring. It runs
// inside a drain with drainMu and the owning shard's lock held, so
// appends arrive already in (deadline, window-open) order and ringMu
// only publishes them to concurrent readers.
func (in *Instance) recordDecision(o aggregator.BinaryOutcome) {
	in.ringMu.Lock()
	in.seq++
	d := Decision{
		Seq:        in.seq,
		Trigger:    float64(o.TriggerTime),
		Decided:    float64(o.DecideTime),
		Occurred:   o.Decision.Occurred,
		CTIFor:     o.Decision.CTIFor,
		CTIAgainst: o.Decision.CTIAgainst,
		Reporters:  append([]int(nil), o.Decision.Reporters...),
		Silent:     append([]int(nil), o.Decision.Silent...),
	}
	if len(in.log) < cap(in.log) {
		in.log = append(in.log, d)
	} else {
		in.log[int((d.Seq-1)%uint64(cap(in.log)))] = d
	}
	in.ringMu.Unlock()
	if in.onDecision != nil {
		in.onDecision(d)
	}
}

// Report ingests one event report, routed to the reporting node's shard.
// The shard's first report opens its T_out window; the expiry arbitrates.
// Reports from nodes outside the member set are rejected with
// ErrUnknownNode.
//
//hot:path
func (in *Instance) Report(node int) error {
	in.drainDue()
	s, ok := in.shardOf.Get(node)
	if !ok {
		if in.closed.Load() {
			return ErrClosed
		}
		return ErrUnknownNode
	}
	sh := in.shards[s]
	sh.mu.Lock()
	if in.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.agg.Deliver(node)
	sh.mu.Unlock()
	in.reports.Add(1)
	return nil
}

// ReportMany ingests a batch — the bulk path the HTTP layer uses. Runs of
// consecutive same-shard reports share one lock acquisition, so a batch
// costs O(runs) lock operations rather than O(len). Unknown nodes are
// skipped (the batch continues; the serving layer returns partial
// accept); a closed instance aborts the remainder. The result carries
// the accepted count and the first rejection.
//
//hot:path
func (in *Instance) ReportMany(nodes []int) BatchResult {
	in.drainDue()
	res := BatchResult{FirstErr: -1}
	i := 0
	for i < len(nodes) {
		s, ok := in.shardOf.Get(nodes[i])
		if !ok {
			if in.closed.Load() {
				if res.Err == nil {
					res.FirstErr, res.Err = i, ErrClosed
				}
				break
			}
			if res.Err == nil {
				res.FirstErr, res.Err = i, ErrUnknownNode
			}
			i++
			continue
		}
		sh := in.shards[s]
		sh.mu.Lock()
		if in.closed.Load() {
			sh.mu.Unlock()
			if res.Err == nil {
				res.FirstErr, res.Err = i, ErrClosed
			}
			break
		}
		for i < len(nodes) {
			s2, ok2 := in.shardOf.Get(nodes[i])
			if !ok2 || s2 != s {
				break
			}
			sh.agg.Deliver(nodes[i])
			res.Accepted++
			i++
		}
		sh.mu.Unlock()
	}
	if res.Accepted > 0 {
		in.reports.Add(uint64(res.Accepted))
	}
	return res
}

// SealedSnapshot captures the tenant's trust state as a sealed blob —
// core.SealSnapshot under the station's key, RoleIssue, a fresh
// monotonic version — suitable for RestoreSealed into a later instance.
// Each shard's live scheme state is flushed into the station ledger
// first, walking shards in index order, so the blob reflects every
// decision made so far across the whole population.
func (in *Instance) SealedSnapshot() ([]byte, error) {
	in.drainDue()
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	if in.closed.Load() {
		return nil, ErrClosed
	}
	for _, sh := range in.shards {
		sh.mu.Lock()
		if st, ok := sh.scheme.(decision.Stateful); ok {
			in.station.StoreSnapshot(st.Snapshot())
		}
		sh.mu.Unlock()
	}
	return in.station.IssueFor(snapshotHandoff, in.members), nil
}

// RestoreSealed verifies a sealed blob and merges its trust records into
// the instance: checksum and role are checked first (tampered or
// truncated blobs fail with core.ErrSnapshotCorrupt; a term-end upload
// blob is not restorable state), then the version must exceed any
// already restored (ErrSnapshotStale). On success the station ledger
// absorbs the records and each shard's live scheme state is rebuilt from
// its members' slice of the ledger.
func (in *Instance) RestoreSealed(blob []byte) error {
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	if in.closed.Load() {
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
	for _, sh := range in.shards {
		sh.mu.Lock()
		if st, ok := sh.scheme.(decision.Stateful); ok {
			st.Restore(in.station.SnapshotFor(sh.members))
		}
		sh.mu.Unlock()
	}
	return nil
}

// DecisionsSince returns decisions with Seq > since, oldest first. The
// ring is bounded (Config.DecisionLog): a poller more than the ring
// capacity behind silently misses the overwritten entries and should
// resume from the first Seq it receives.
func (in *Instance) DecisionsSince(since uint64) []Decision {
	in.drainDue()
	in.ringMu.Lock()
	defer in.ringMu.Unlock()
	if in.seq <= since {
		return nil
	}
	first := uint64(1)
	if cap(in.log) > 0 && in.seq > uint64(cap(in.log)) {
		first = in.seq - uint64(cap(in.log)) + 1
	}
	if since+1 > first {
		first = since + 1
	}
	out := make([]Decision, 0, in.seq-first+1)
	for s := first; s <= in.seq; s++ {
		out = append(out, in.log[int((s-1)%uint64(cap(in.log)))])
	}
	return out
}

// DecisionCount returns how many decisions the instance has made.
func (in *Instance) DecisionCount() uint64 {
	in.drainDue()
	in.ringMu.Lock()
	defer in.ringMu.Unlock()
	return in.seq
}

// ReportCount returns how many reports the instance has accepted.
func (in *Instance) ReportCount() uint64 { return in.reports.Load() }

// Members returns the instance's member IDs, sorted ascending. The
// slice is shared and must not be mutated.
func (in *Instance) Members() []int { return in.members }

// Shards returns how many single-writer shards the population is
// partitioned into.
func (in *Instance) Shards() int { return len(in.shards) }

// SchemeName returns the canonical name of the instance's scheme.
func (in *Instance) SchemeName() string { return in.shards[0].scheme.Name() }

// TI returns the scheme's current trust index for a node. A node outside
// the member set reads through an arbitrary shard's scheme, which — all
// schemes holding per-node state only — answers the default trust, the
// same value the single-lock instance reported.
func (in *Instance) TI(node int) float64 {
	in.drainDue()
	sh := in.shards[0]
	if s, ok := in.shardOf.Get(node); ok {
		sh = in.shards[s]
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.scheme.TI(node)
}

// IsolatedNodes returns the sorted IDs of all isolated nodes.
func (in *Instance) IsolatedNodes() []int {
	in.drainDue()
	var out []int
	for _, sh := range in.shards {
		sh.mu.Lock()
		out = append(out, sh.scheme.IsolatedNodes()...)
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// TrustTable returns one row per member, sorted by node ID — the
// tenant's live trust state as the HTTP layer serves it. Each shard is
// locked once; shard s's k-th member is the globally-sorted member
// k*S+s (the ShardMembers round-robin inverse), so rows land in place
// without a sort.
func (in *Instance) TrustTable() []TrustEntry {
	in.drainDue()
	out := make([]TrustEntry, len(in.members))
	nShards := len(in.shards)
	for s, sh := range in.shards {
		sh.mu.Lock()
		for k, id := range sh.members {
			out[k*nShards+s] = TrustEntry{
				Node:     id,
				TI:       sh.scheme.TI(id),
				Isolated: sh.scheme.Isolated(id),
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Close shuts the instance down: pending windows die, further reports
// fail with ErrClosed. Close is idempotent. It closes a *WallClock
// clock; a shared sim kernel is left to its owner.
func (in *Instance) Close() {
	if in.closed.Swap(true) {
		return
	}
	for _, sh := range in.shards {
		sh.mu.Lock()
		sh.agg.Close()
		sh.mu.Unlock()
	}
	if wc, ok := in.clock.(*WallClock); ok {
		wc.Close()
	}
}
