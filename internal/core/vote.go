package core

import (
	"fmt"
	"slices"
)

// BinaryDecision is the outcome of one CTI vote over an event-neighbor set
// (§3.1). Reporters claimed the event happened; Silent event neighbors did
// not report within T_out.
type BinaryDecision struct {
	// Occurred is the sink's conclusion.
	Occurred bool
	// CTIFor is the cumulative trust of the reporting set R.
	CTIFor float64
	// CTIAgainst is the cumulative trust of the non-reporting set NR.
	CTIAgainst float64
	// Reporters and Silent are the two sides of the vote, sorted by ID,
	// with isolated nodes already excluded.
	Reporters []int
	Silent    []int
}

// String summarizes the decision for traces.
func (d BinaryDecision) String() string {
	return fmt.Sprintf("occurred=%t ctiFor=%.3f ctiAgainst=%.3f |R|=%d |NR|=%d",
		d.Occurred, d.CTIFor, d.CTIAgainst, len(d.Reporters), len(d.Silent))
}

// Margin returns CTIFor - CTIAgainst; positive margins mean the event was
// declared.
func (d BinaryDecision) Margin() float64 { return d.CTIFor - d.CTIAgainst }

// DecideBinary runs the §3.1 vote: the event-neighbor set is partitioned
// into reporters and silent nodes, the side with the higher CTI wins, and
// ties resolve to "no event" (a conservative choice the paper leaves
// unspecified). Isolated nodes are excluded from both sides before
// weighing. The function does not update trust state; call Apply with the
// returned decision to do that, so that shadow cluster heads can evaluate
// a decision without committing it.
//
// The decision's sides are fresh sorted copies, both cut from one new
// array, so the arguments stay the caller's to reuse.
//
//hot:path
func DecideBinary(w Weigher, reporters, silent []int) BinaryDecision {
	// The sides escape to the caller, so this is the vote's one allocation.
	ids := make([]int, 0, len(reporters)+len(silent))
	ids = appendActive(ids, w, reporters)
	n := len(ids)
	ids = appendActive(ids, w, silent)
	d := BinaryDecision{Reporters: ids[:n:n], Silent: ids[n:]}
	d.CTIFor = CTI(w, d.Reporters)
	d.CTIAgainst = CTI(w, d.Silent)
	d.Occurred = d.CTIFor > d.CTIAgainst
	return d
}

// Apply commits the trust updates implied by a decision: nodes that sided
// with the winning outcome are judged correct, the rest faulty (§3.1).
func Apply(w Weigher, d BinaryDecision) {
	for _, id := range d.Reporters {
		w.Judge(id, d.Occurred)
	}
	for _, id := range d.Silent {
		w.Judge(id, !d.Occurred)
	}
}

// appendActive appends the nodes that are not isolated to dst and sorts
// the appended part, unless the nodes arrived ascending (the aggregators'
// sides always do).
func appendActive(dst []int, w Weigher, nodes []int) []int {
	start := len(dst)
	for _, id := range nodes {
		if !w.Isolated(id) {
			dst = append(dst, id)
		}
	}
	if added := dst[start:]; !slices.IsSorted(added) {
		slices.Sort(added)
	}
	return dst
}

// Estimator mirrors the sink-side trust computation from a node's own
// vantage point. Smart adversaries (level 1 and 2, §2.1) use it to keep
// their trust "at a reasonably high level where [they estimate they] will
// not be detected and isolated": whenever the node observes the sink's
// broadcast decision it learns whether its own report sided with the
// outcome, which is exactly the information the sink used, so the estimate
// tracks the sink's value without error (up to packets the channel drops).
type Estimator struct {
	params Params
	v      float64
}

// NewEstimator returns an estimator replicating a table with params.
func NewEstimator(params Params) *Estimator {
	return &Estimator{params: params}
}

// TI returns the node's current estimate of its own trust index.
func (e *Estimator) TI() float64 { return e.params.trustOf(e.v) }

// Observe folds in one overheard verdict about the node's own behaviour,
// applying the same update rule as the sink (including the Linear ablation
// mode, so the mirror stays exact under either model).
func (e *Estimator) Observe(correct bool) {
	if correct {
		if e.params.Linear {
			e.v--
		} else {
			e.v -= e.params.FaultRate
		}
		if e.v < 0 {
			e.v = 0
		}
	} else {
		if e.params.Linear {
			e.v++
		} else {
			e.v += 1 - e.params.FaultRate
		}
	}
}
