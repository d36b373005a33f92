package decision

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/tibfit/tibfit/internal/core"
)

// The scheme-conformance harness: every registered scheme, whatever its
// trust model, must honour the contract the aggregation pipeline and the
// experiments rely on —
//
//   - trust indices and vote weights stay in [0, 1] over any verdict
//     history;
//   - unknown nodes weigh 1 (full initial trust), are not isolated, and
//     report TI 1;
//   - the removal threshold means one thing everywhere: whenever a judged
//     node's TI sits at or below the threshold it is isolated, an
//     isolated node weighs 0 and ignores further verdicts, and
//     IsolatedNodes() lists exactly the isolated IDs, sorted;
//   - Arbitrate is pure: repeated calls agree, no trust state moves, and
//     caller-owned argument slices come back untouched;
//   - the whole scheme is deterministic: two instances fed the same
//     verdict history agree on every observable.
//
// (Campaign-level byte-identity across -parallel worker counts is pinned
// per scheme in internal/experiment's conformance test, which needs the
// sweep harness.)

// conformanceParams gives every scheme an isolation threshold so the
// shared semantics are exercised.
func conformanceParams() Params {
	return Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.5}}
}

// verdictSequence is a fixed, deterministic interleaving of judgments over
// a small population: node IDs cycle, and every third verdict is faulty
// except node 0, which is always faulty (so somebody crosses the
// threshold).
func verdictSequence(n int) []struct {
	node    int
	correct bool
} {
	out := make([]struct {
		node    int
		correct bool
	}, n)
	for i := range out {
		out[i].node = i % 7
		out[i].correct = out[i].node != 0 && i%3 != 0
	}
	return out
}

func TestConformanceTrustBounds(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, conformanceParams())
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdictSequence(400) {
			s.Judge(v.node, v.correct)
			ti, w := s.TI(v.node), s.Weight(v.node)
			if ti < 0 || ti > 1 || math.IsNaN(ti) {
				t.Fatalf("%s: TI out of [0,1] after verdict %d: %v", name, i, ti)
			}
			if w < 0 || w > 1 || math.IsNaN(w) {
				t.Fatalf("%s: Weight out of [0,1] after verdict %d: %v", name, i, w)
			}
		}
	}
}

func TestConformanceUnknownNodes(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, conformanceParams())
		if err != nil {
			t.Fatal(err)
		}
		const stranger = 9999
		if s.TI(stranger) != 1 || s.Weight(stranger) != 1 || s.Isolated(stranger) {
			t.Errorf("%s: unknown node: TI=%v Weight=%v Isolated=%v, want 1/1/false",
				name, s.TI(stranger), s.Weight(stranger), s.Isolated(stranger))
		}
	}
}

func TestConformanceIsolationSemantics(t *testing.T) {
	p := conformanceParams()
	threshold := p.Trust.RemovalThreshold
	for _, name := range Names() {
		s, err := New(name, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdictSequence(400) {
			s.Judge(v.node, v.correct)
			// The shared threshold invariant: a judged node at or
			// below the threshold must be isolated (vacuous for
			// stateless schemes, whose TI never leaves 1).
			if s.TI(v.node) <= threshold && !s.Isolated(v.node) {
				t.Fatalf("%s: node %d at TI %v <= %v but not isolated",
					name, v.node, s.TI(v.node), threshold)
			}
			if s.Isolated(v.node) && s.Weight(v.node) != 0 {
				t.Fatalf("%s: isolated node %d weighs %v, want 0",
					name, v.node, s.Weight(v.node))
			}
		}

		iso := s.IsolatedNodes()
		if !sort.IntsAreSorted(iso) {
			t.Fatalf("%s: IsolatedNodes not sorted: %v", name, iso)
		}
		for _, id := range iso {
			if !s.Isolated(id) {
				t.Fatalf("%s: IsolatedNodes lists %d but Isolated(%d) = false", name, id, id)
			}
			// Verdicts on isolated nodes are ignored.
			before := s.TI(id)
			s.Judge(id, true)
			if s.TI(id) != before || !s.Isolated(id) {
				t.Fatalf("%s: verdict on isolated node %d moved state", name, id)
			}
		}
		for id := 0; id < 7; id++ {
			listed := false
			for _, x := range iso {
				if x == id {
					listed = true
				}
			}
			if s.Isolated(id) != listed {
				t.Fatalf("%s: Isolated(%d)=%v but listed=%v", name, id, s.Isolated(id), listed)
			}
		}
	}
}

func TestConformanceArbitratePure(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, conformanceParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdictSequence(60) {
			s.Judge(v.node, v.correct)
		}
		reporters := []int{5, 3, 1, 0}
		silent := []int{6, 2, 4}
		repCopy := append([]int(nil), reporters...)
		silCopy := append([]int(nil), silent...)

		tiBefore := make([]float64, 7)
		for id := range tiBefore {
			tiBefore[id] = s.TI(id)
		}
		first := s.Arbitrate(reporters, silent)
		second := s.Arbitrate(reporters, silent)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: Arbitrate not repeatable:\n%+v\n%+v", name, first, second)
		}
		for id := range tiBefore {
			if s.TI(id) != tiBefore[id] {
				t.Fatalf("%s: Arbitrate moved TI(%d)", name, id)
			}
		}
		if !reflect.DeepEqual(reporters, repCopy) || !reflect.DeepEqual(silent, silCopy) {
			t.Fatalf("%s: Arbitrate mutated caller slices", name)
		}
	}
}

func TestConformanceDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, conformanceParams())
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(name, conformanceParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdictSequence(400) {
			a.Judge(v.node, v.correct)
			b.Judge(v.node, v.correct)
		}
		for id := 0; id < 7; id++ {
			if a.TI(id) != b.TI(id) || a.Weight(id) != b.Weight(id) || a.Isolated(id) != b.Isolated(id) {
				t.Fatalf("%s: two identical histories disagree on node %d", name, id)
			}
		}
		if !reflect.DeepEqual(a.IsolatedNodes(), b.IsolatedNodes()) {
			t.Fatalf("%s: isolation sets disagree", name)
		}
		da := a.Arbitrate([]int{1, 2, 3}, []int{4, 5})
		db := b.Arbitrate([]int{1, 2, 3}, []int{4, 5})
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("%s: arbitration disagrees: %+v vs %+v", name, da, db)
		}
	}
}

// TestConformanceRestoreNilIsEmpty pins what a station's member-filtered
// export relies on: it returns nil when it holds none of a cluster's
// records, so every stateful scheme must read Restore(nil) exactly as
// Restore of an empty map — all prior state dropped, every node back to
// full default trust.
func TestConformanceRestoreNilIsEmpty(t *testing.T) {
	for _, name := range Names() {
		var restored [2]Scheme
		for i, snap := range []map[int]core.Record{nil, {}} {
			s, err := New(name, conformanceParams())
			if err != nil {
				t.Fatal(err)
			}
			st, ok := s.(Stateful)
			if !ok {
				continue
			}
			for _, v := range verdictSequence(60) {
				s.Judge(v.node, v.correct)
			}
			st.Restore(snap)
			restored[i] = s
		}
		a, b := restored[0], restored[1]
		if a == nil {
			continue
		}
		if sa, sb := a.(Stateful).Snapshot(), b.(Stateful).Snapshot(); len(sa) != 0 || len(sb) != 0 {
			t.Fatalf("%s: restore left records behind: nil → %v, empty → %v", name, sa, sb)
		}
		for _, v := range verdictSequence(40) {
			a.Judge(v.node, v.correct)
			b.Judge(v.node, v.correct)
		}
		for id := 0; id < 7; id++ {
			if a.TI(id) != b.TI(id) || a.Weight(id) != b.Weight(id) || a.Isolated(id) != b.Isolated(id) {
				t.Fatalf("%s: Restore(nil) and Restore(empty) disagree on node %d", name, id)
			}
		}
		if !reflect.DeepEqual(a.(Stateful).Snapshot(), b.(Stateful).Snapshot()) {
			t.Fatalf("%s: snapshots diverged after Restore(nil) vs Restore(empty)", name)
		}
	}
}
