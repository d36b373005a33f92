package cluster

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
)

// Circle is the symbolic circle of radius rError the cluster head draws
// around the first report of a suspected event (paper §3.3). Reports that
// land inside the circle join it; its timer expires T_out after the
// anchoring report arrived.
type Circle struct {
	Center   geo.Point // location of the anchoring (first) report
	Deadline sim.Time  // anchor arrival time + T_out
	Reports  []Report
}

// String summarizes the circle for traces.
func (c *Circle) String() string {
	return fmt.Sprintf("center=%v deadline=%v n=%d", c.Center, c.Deadline, len(c.Reports))
}

// CircleSet tracks the open circles for the concurrent-event protocol. The
// aggregation rule from §3.3:
//
//  1. The first report anchors a circle of radius rError with its own
//     T_out timer; later reports within rError of the anchor join it.
//  2. A report outside every open circle anchors a new circle with its own
//     timer.
//  3. When a circle's timer expires, its reports are clustered — unless it
//     overlaps other circles, in which case the cluster head waits for all
//     timers in the overlapping group and clusters the union.
//
// Overlap is transitive for the purpose of rule 3, so readiness is decided
// per connected component of the overlap graph.
type CircleSet struct {
	rError float64
	tout   sim.Duration
	open   []*Circle

	// free holds collected circles for Add to reopen, and root, ready
	// and groups are Collect's working storage, so a set in steady state
	// allocates nothing.
	free   []*Circle
	root   []int
	ready  []bool
	groups [][]Report
}

// NewCircleSet returns an empty circle tracker.
func NewCircleSet(rError float64, tout sim.Duration) *CircleSet {
	if rError <= 0 {
		panic(fmt.Sprintf("cluster: rError must be positive, got %v", rError))
	}
	return &CircleSet{rError: rError, tout: tout}
}

// Open returns the number of circles currently open.
func (s *CircleSet) Open() int { return len(s.open) }

// Add routes a report arriving at time now into an existing circle or a
// new one. It returns the circle the report joined and whether the circle
// is new (its deadline timer still needs scheduling). The circle is the
// set's storage: once Collect has taken it, a later Add reopens it.
//
//hot:path
func (s *CircleSet) Add(r Report, now sim.Time) (c *Circle, isNew bool) {
	for i, c := range s.open {
		if c.Center.Within(r.Loc, s.rError) {
			s.open[i].Reports = append(s.open[i].Reports, r)
			return c, false
		}
	}
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		//lint:allow hotalloc built only when no collected circle is free to reopen
		c = &Circle{}
	}
	c.Center, c.Deadline, c.Reports = r.Loc, now.Add(s.tout), append(c.Reports[:0], r)
	s.open = append(s.open, c)
	return c, true
}

// Collect removes and returns every connected overlap component in which
// all circle deadlines have passed by now. Each returned group is the
// union of the component's reports, ready for the §3.2 clustering pass;
// groups come in ascending order of their component's root circle, and a
// group lists its circles' reports in the order the circles opened.
// Components still waiting on a timer are left open, and nil means none
// was ready. The groups are the set's storage, valid until the next
// Collect.
//
//hot:path
func (s *CircleSet) Collect(now sim.Time) [][]Report {
	if len(s.open) == 0 {
		return nil
	}
	root := s.components()
	n := len(s.open)
	ready := s.ready[:0]
	for range s.open {
		ready = append(ready, true)
	}
	for i, c := range s.open {
		if c.Deadline > now {
			ready[root[i]] = false
		}
	}
	s.ready = ready
	k := 0
	for r := 0; r < n; r++ {
		if root[r] != r || !ready[r] {
			continue
		}
		if k == len(s.groups) {
			s.groups = append(s.groups, nil)
		}
		union := s.groups[k][:0]
		for i, c := range s.open {
			if root[i] == r {
				union = append(union, c.Reports...)
			}
		}
		s.groups[k] = union
		k++
	}
	if k == 0 {
		return nil
	}
	kept := s.open[:0]
	for i, c := range s.open {
		if ready[root[i]] {
			s.free = append(s.free, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(s.open[len(kept):])
	s.open = kept
	return s.groups[:k]
}

// NextDeadline returns the earliest deadline among open circles, or ok =
// false when none are open. The aggregator uses it to schedule its next
// collection timer.
func (s *CircleSet) NextDeadline() (t sim.Time, ok bool) {
	if len(s.open) == 0 {
		return 0, false
	}
	t = s.open[0].Deadline
	for _, c := range s.open[1:] {
		if c.Deadline < t {
			t = c.Deadline
		}
	}
	return t, true
}

// components partitions open circles into connected components of the
// overlap graph: it returns, for each open circle, the index of its
// component's root. Two circles of radius rError overlap when their
// centers are within 2·rError.
func (s *CircleSet) components() []int {
	n := len(s.open)
	parent := s.root[:0]
	for i := 0; i < n; i++ {
		parent = append(parent, i)
	}
	s.root = parent
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	touch := 2 * s.rError
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.open[i].Center.Dist(s.open[j].Center) <= touch {
				if ra, rb := find(i), find(j); ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	for i := range parent {
		parent[i] = find(i)
	}
	return parent
}
