// Package core implements the TIBFIT trust-index engine — the paper's
// primary contribution (§3).
//
// Every sensing node is assigned a trust index TI ∈ [0, 1] maintained by
// the data sink (cluster head). A per-node fault accumulator v starts at
// zero; each report the sink judges faulty raises v by 1-f_r, each report
// judged correct lowers v by f_r (floored at zero), and
//
//	TI = exp(-λ·v)
//
// so a node erring exactly at the natural error rate f_r has E[Δv] = 0 and
// keeps its trust, while a node erring more often decays exponentially —
// early mistakes are penalized more and are harder to earn back than under
// a linear model (§3). Event decisions weight each node's vote by its TI
// and compare cumulative trust indices (CTI) of the two sides.
//
// The package also provides the stateless majority-voting baseline the
// paper compares against, and the self-estimator that "smart" (level 1/2)
// adversaries use to track what the sink currently thinks of them.
package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/tibfit/tibfit/internal/sparse"
)

// Default protocol constants from the paper's experiments.
const (
	// DefaultLambdaBinary is the λ used in Experiment 1 (Table 1).
	DefaultLambdaBinary = 0.1
	// DefaultLambdaLocation is the λ used in Experiments 2-3 (Table 2).
	DefaultLambdaLocation = 0.25
	// DefaultFaultRateLocation is the f_r used in Experiments 2-3. The
	// paper sets it to 0.1, deliberately above the correct nodes' error
	// rate "to compensate for wireless channel model losses".
	DefaultFaultRateLocation = 0.1
)

// Params configures a trust table.
type Params struct {
	// Lambda is the exponential decay constant λ in TI = exp(-λ·v).
	Lambda float64

	// FaultRate is f_r, the tolerated natural error rate. Each faulty
	// report adds 1-f_r to v; each correct report subtracts f_r.
	FaultRate float64

	// RemovalThreshold isolates a node once its TI falls to or below this
	// value: the sink stops counting its reports and stops updating it.
	// Zero disables isolation (the paper describes isolation as an
	// operator action once TI "falls below a certain threshold").
	RemovalThreshold float64

	// Linear switches to the symmetric additive model §3 argues against:
	// each faulty report steps v up by one, each correct report steps it
	// back down (floored at zero), and TI = max(0, 1-λ·v). Because the
	// floor erases history, "a node that lies 50% of the time would still
	// occasionally have the trust index value of one" (§3) — unlike the
	// exponential model, where each correct report only recovers the small
	// f_r fraction of a fault's penalty. The flag exists for the ablation
	// that quantifies the argument.
	Linear bool
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Lambda <= 0:
		return fmt.Errorf("core: Lambda must be positive, got %v", p.Lambda)
	case p.FaultRate < 0 || p.FaultRate >= 1:
		return fmt.Errorf("core: FaultRate must be in [0,1), got %v", p.FaultRate)
	case p.RemovalThreshold < 0 || p.RemovalThreshold >= 1:
		return fmt.Errorf("core: RemovalThreshold must be in [0,1), got %v", p.RemovalThreshold)
	default:
		return nil
	}
}

// TrustOf converts a fault accumulator to a trust index under p — the §3
// mapping a Table keeps on each record, exported for callers needing a
// one-off conversion without building a Table (e.g. the base station
// consulting an uploaded trust record during head appointment).
func (p Params) TrustOf(v float64) float64 { return p.trustOf(v) }

// trustOf converts a fault accumulator to a trust index under p.
func (p Params) trustOf(v float64) float64 {
	if v < 0 {
		v = 0
	}
	if p.Linear {
		ti := 1 - p.Lambda*v
		if ti < 0 {
			return 0
		}
		return ti
	}
	return math.Exp(-p.Lambda * v)
}

// ExpectedDeltaV returns the expected per-event change in v for a node that
// errs with probability errRate when the table tolerates FaultRate. A node
// erring exactly at the tolerated rate has expectation zero (§3):
//
//	E[Δv] = errRate·(1-f_r) - (1-errRate)·f_r
//
// (The unfloored expectation; the floor at v=0 only helps the node.)
func (p Params) ExpectedDeltaV(errRate float64) float64 {
	return errRate*(1-p.FaultRate) - (1-errRate)*p.FaultRate
}

// Record is the per-node trust state held by the sink.
type Record struct {
	V        float64 // fault accumulator
	Correct  int     // reports judged correct
	Faulty   int     // reports judged faulty
	Isolated bool    // removed from voting after crossing the threshold
}

// Weigher is the voting-weight policy the aggregation pipeline consults.
// The TIBFIT Table and the majority-voting Baseline both implement it, so
// the rest of the system is agnostic to which scheme is running.
type Weigher interface {
	// Weight returns the node's current vote weight in [0, 1].
	Weight(node int) float64
	// Judge records the sink's verdict on the node's behaviour for one
	// event decision (true = the node sided with the winning outcome).
	Judge(node int, correct bool)
	// Isolated reports whether the node has been removed from voting.
	Isolated(node int) bool
	// Name identifies the scheme in experiment output.
	Name() string
}

// Table is the TIBFIT trust table a cluster head maintains for the nodes in
// its cluster. It is not safe for concurrent use; the simulator is
// single-threaded and a real CH is a single mote.
//
// Records live in a CSR-style sparse vector (sorted IDs, internal/sparse)
// rather than a dense map: memory is O(nodes actually judged), a lookup
// on the contiguous IDs a cluster holds is one probe at the dense offset,
// Nodes/IsolatedNodes walk the entries already in ID order with no sort,
// and a window-close feedback pass over a cluster's members touches each
// cache line once instead of hashing per report. Each record carries its
// trust index, recomputed whenever v changes, so a vote's weight read is
// one load with no math.Exp.
type Table struct {
	params Params
	recs   sparse.Vector[slot]
}

// slot is a record with its trust index trustOf(V) beside it. The index
// is derived state: it is set when the record is created, judged or
// restored, and never serialized.
type slot struct {
	Record
	ti float64
}

var _ Weigher = (*Table)(nil)

// NewTable returns an empty trust table. It returns an error if the
// parameters are invalid.
func NewTable(params Params) (*Table, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Table{params: params}, nil
}

// MustNewTable is NewTable for callers with compile-time-constant params.
func MustNewTable(params Params) *Table {
	t, err := NewTable(params)
	if err != nil {
		panic(err)
	}
	return t
}

// Params returns the table's configuration.
func (t *Table) Params() Params { return t.params }

// Name implements Weigher.
func (t *Table) Name() string { return "tibfit" }

// rec returns the node's slot, creating a pristine one on first sight.
// New nodes start with v=0, i.e. full trust (§3). The pointer is only
// valid until the next insertion.
//
//hot:path
func (t *Table) rec(node int) *slot {
	n := t.recs.Len()
	s := t.recs.Upsert(node)
	if t.recs.Len() != n {
		s.ti = t.params.trustOf(0)
	}
	return s
}

// TI returns the node's current trust index. Unknown nodes have TI 1.
//
//hot:path
func (t *Table) TI(node int) float64 {
	if s := t.recs.Find(node); s != nil {
		return s.ti
	}
	return 1
}

// Weight implements Weigher: an isolated node weighs nothing, otherwise
// the weight is the trust index.
//
//hot:path
func (t *Table) Weight(node int) float64 {
	if s := t.recs.Find(node); s != nil {
		if s.Isolated {
			return 0
		}
		return s.ti
	}
	return 1
}

// V returns the node's fault accumulator (0 for unknown nodes).
func (t *Table) V(node int) float64 {
	if r := t.recs.Find(node); r != nil {
		return r.V
	}
	return 0
}

// Record returns a copy of the node's record and whether it exists.
func (t *Table) Record(node int) (Record, bool) {
	if s := t.recs.Find(node); s != nil {
		return s.Record, true
	}
	return Record{}, false
}

// Judge implements Weigher by applying the §3 update rule, then isolating
// the node if its TI crossed the removal threshold. Judgments against an
// already-isolated node are ignored: the sink no longer listens to it.
//
//hot:path
func (t *Table) Judge(node int, correct bool) {
	r := t.rec(node)
	if r.Isolated {
		return
	}
	if correct {
		r.Correct++
		if t.params.Linear {
			r.V--
		} else {
			r.V -= t.params.FaultRate
		}
		if r.V < 0 {
			r.V = 0
		}
	} else {
		r.Faulty++
		if t.params.Linear {
			r.V++
		} else {
			r.V += 1 - t.params.FaultRate
		}
	}
	r.ti = t.params.trustOf(r.V)
	if t.params.RemovalThreshold > 0 && r.ti <= t.params.RemovalThreshold {
		r.Isolated = true
	}
}

// Isolate removes the node from voting immediately, regardless of its
// accumulator — the operator-action override §3 alludes to, used by the
// base station when it holds unforgeable evidence of misbehaviour (a
// tampered or replayed trust snapshot) that no gradual penalty should
// dilute.
func (t *Table) Isolate(node int) { t.rec(node).Isolated = true }

// Isolated implements Weigher.
func (t *Table) Isolated(node int) bool {
	r := t.recs.Find(node)
	return r != nil && r.Isolated
}

// IsolatedNodes returns the sorted IDs of all isolated nodes. The sparse
// store iterates in ID order, so no sort is needed.
func (t *Table) IsolatedNodes() []int {
	var out []int
	t.recs.Scan(func(id int, s *slot) bool {
		if s.Isolated {
			out = append(out, id)
		}
		return true
	})
	return out
}

// Nodes returns the sorted IDs of all nodes the table has seen.
func (t *Table) Nodes() []int {
	out := make([]int, 0, t.recs.Len())
	return append(out, t.recs.IDs()...)
}

// CTI returns the cumulative trust index of a set of nodes — the sum of
// their vote weights (§3.1). Isolated nodes contribute zero.
//
//hot:path
func (t *Table) CTI(nodes []int) float64 {
	return CTI(t, nodes)
}

// Snapshot exports the table state for transfer to the base station when a
// cluster head's leadership period ends (§2). The returned map is a deep
// copy.
func (t *Table) Snapshot() map[int]Record {
	out := make(map[int]Record, t.recs.Len())
	t.recs.Scan(func(id int, s *slot) bool {
		out[id] = s.Record
		return true
	})
	return out
}

// Restore replaces the table contents with a previously exported snapshot,
// as a newly elected cluster head does after fetching trust state from the
// base station (§2). Keys are sorted before the rebuild so every insert
// hits the sparse vector's tail fast path and map range order never
// reaches the store.
func (t *Table) Restore(snap map[int]Record) {
	t.recs.Reset()
	ids := make([]int, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := snap[id]
		*t.recs.Upsert(id) = slot{Record: r, ti: t.params.trustOf(r.V)}
	}
}

// CTI sums the vote weights of nodes under any weighing policy.
//
//hot:path
func CTI(w Weigher, nodes []int) float64 {
	var sum float64
	for _, id := range nodes {
		sum += w.Weight(id)
	}
	return sum
}

// Baseline is the stateless majority-voting scheme the paper compares
// TIBFIT against: every node's vote always weighs 1, no node is ever
// penalized or isolated.
type Baseline struct{}

var _ Weigher = Baseline{}

// Name implements Weigher.
func (Baseline) Name() string { return "baseline" }

// Weight implements Weigher: every vote counts 1.
func (Baseline) Weight(int) float64 { return 1 }

// Judge implements Weigher as a no-op: the baseline keeps no state.
func (Baseline) Judge(int, bool) {}

// Isolated implements Weigher: the baseline never removes nodes.
func (Baseline) Isolated(int) bool { return false }
