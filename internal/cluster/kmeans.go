// Package cluster implements the spatial grouping machinery of TIBFIT's
// location-determination mode: the K-means-style heuristic that organizes
// location reports into event clusters (paper §3.2), and the symbolic
// circle bookkeeping that separates concurrent events before clustering
// (paper §3.3).
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/tibfit/tibfit/internal/geo"
)

// Report is one location report as seen by the cluster head after polar
// conversion: which node sent it and the absolute location it indicates.
type Report struct {
	Node int
	Loc  geo.Point
}

// EventCluster is one group of mutually consistent reports. Center is the
// cluster's center of gravity (cg) — the average location indicated by the
// member reports — which the protocol takes as the event location.
//
// Clusters built by Cluster list Reports in ascending Node order (the
// canonical processing order), so per-member iteration is deterministic
// without re-sorting.
type EventCluster struct {
	Center  geo.Point
	Reports []Report
}

// Nodes returns the sorted IDs of the nodes whose reports are members.
func (c EventCluster) Nodes() []int {
	out := make([]int, 0, len(c.Reports))
	for _, r := range c.Reports {
		out = append(out, r.Node)
	}
	sort.Ints(out)
	return out
}

// String summarizes the cluster for traces.
func (c EventCluster) String() string {
	return fmt.Sprintf("cg=%v n=%d", c.Center, len(c.Reports))
}

// maxRounds bounds the refinement loop. The paper's heuristic converges in
// a handful of rounds on its workloads; the bound only guards against
// pathological oscillation on adversarial inputs.
const maxRounds = 64

// gridMinPoints is the input size at which the heuristic's inner scans
// switch from the exact brute loops to the spatial grid. The grid paths
// are byte-identical to the brute ones by construction (same float
// predicates, same tie-breaks — pinned by the geo differential fuzzers),
// but keeping paper-scale inputs on the historical code path makes the
// golden-figure guarantee unconditional and skips the grid's constant
// overhead where n is tiny.
const gridMinPoints = 48

// hullMinPoints is the input size at which farthest-pair seeding switches
// from the O(n²) scan to a convex-hull pass. Unlike the grid paths this
// is not bit-for-bit against brute in adversarial ulp-tie cases, so the
// threshold sits far above every golden-pinned workload.
const hullMinPoints = 4096

// Cluster groups event reports into disjoint event clusters of radius
// rError following §3.2. It is the convenience wrapper over a throwaway
// Clusterer; callers that cluster repeatedly (the location aggregation
// pipeline, every Recluster round) should hold a Clusterer and reuse its
// scratch.
//
// A nil or empty input yields no clusters. rError must be positive.
func Cluster(reports []Report, rError float64) []EventCluster {
	var c Clusterer
	return c.Cluster(reports, rError)
}

// Clusterer runs the §3.2 heuristic with persistent scratch: the sorted
// report copy, per-center member lists, the cluster slice, the
// convergence fingerprint, the center buffers, and the spatial grid
// survive across calls, so a steady-state Cluster call allocates nothing.
// A Clusterer is not safe for concurrent use; give each goroutine its own.
type Clusterer struct {
	sorted   []Report
	scratch  [][]Report
	clusters []EventCluster
	sig      sigScratch

	// seedPts and mergePts alternate as center storage: seedPts carries
	// the seeded centers into the refinement loop, mergePts the merged
	// centers between rounds. They must be distinct: assign still reads
	// one while mergeCenters writes the other.
	seedPts  []geo.Point
	mergePts []geo.Point
	wcs      []wc

	grid     *geo.Grid
	gridPts  []geo.Point
	rangeIDs []int
}

// NewClusterer returns a Clusterer with empty scratch.
func NewClusterer() *Clusterer { return &Clusterer{} }

// lazyGrid returns the reusable spatial index, allocating it on the first
// call that reaches grid scale.
func (c *Clusterer) lazyGrid() *geo.Grid {
	if c.grid == nil {
		c.grid = geo.NewGrid()
	}
	return c.grid
}

// Cluster groups event reports into disjoint event clusters of radius
// rError following §3.2:
//
//  1. Seed centers with the farthest pair of reports.
//  2. Promote any report farther than rError from every current center to
//     a new center, until no report can form a separate cluster.
//  3. Assign every report to its nearest center and recompute each
//     cluster's center of gravity.
//  4. While two or more centers lie within rError of each other, replace
//     them with their weighted average and repeat the assignment round,
//     until cluster constituency stops changing.
//
// The result is a set of clusters whose centers are pairwise more than
// rError apart, covering every report. Reports from nodes whose
// localization error exceeds rError land in separate (typically tiny)
// clusters, which the subsequent CTI vote throws out — this is the
// mechanism by which TIBFIT discards badly localized reports.
//
// The result and its member lists are the Clusterer's storage: they stay
// valid until the next Cluster call, which overwrites them. A caller that
// keeps clusters longer copies them.
//
//hot:path
func (c *Clusterer) Cluster(reports []Report, rError float64) []EventCluster {
	if len(reports) == 0 {
		return nil
	}
	if rError <= 0 {
		//lint:allow hotalloc panic construction on the rejection path, not per round
		panic(fmt.Sprintf("cluster: rError must be positive, got %v", rError))
	}
	// Canonicalize processing order so the heuristic's tie-breaks (and
	// therefore its output) do not depend on report arrival order.
	c.sorted = append(c.sorted[:0], reports...)
	slices.SortFunc(c.sorted, func(a, b Report) int { return cmp.Compare(a.Node, b.Node) })
	reports = c.sorted
	centers := c.seedCenters(reports, rError)
	var clusters []EventCluster
	c.sig.reset()
	// Member-list scratch for every assignment: centers never grow after
	// seeding, so one buffer sized to the seed count serves the
	// refinement rounds and the final assignment alike.
	if cap(c.scratch) < len(centers) {
		c.scratch = make([][]Report, len(centers))
	}
	for round := 0; round < maxRounds; round++ {
		clusters = c.assign(reports, centers)
		centers = c.mergeCenters(clusters, rError)
		if c.sig.converged(clusters) && len(centers) == len(clusters) {
			break
		}
	}
	// Final assignment against the merged centers so that the returned
	// clusters are consistent with the centers' separation invariant.
	// The rounds' clusters are dead by now: mergeCenters and the
	// fingerprint have read them.
	clusters = c.assign(reports, centers)
	for i := range clusters {
		clusters[i].Center = reportCentroid(clusters[i].Reports)
	}
	sortClusters(clusters)
	return clusters
}

// seedCenters performs steps 1-2: farthest-pair seeding plus promotion of
// every report that cannot be covered by an existing center. At grid
// scale the "is any center within rError" membership test runs against
// the index over already-promoted centers plus a linear tail of pending
// ones, re-indexing geometrically; the promote/skip decision per report
// is the exact brute predicate either way.
func (c *Clusterer) seedCenters(reports []Report, rError float64) []geo.Point {
	if len(reports) == 1 {
		c.seedPts = append(c.seedPts[:0], reports[0].Loc)
		return c.seedPts
	}
	ai, bi, maxD2 := farthestPair(reports)
	r2 := rError * rError
	if maxD2 <= r2 {
		// All reports are mutually within rError: a single cluster.
		c.seedPts = append(c.seedPts[:0], reportCentroid(reports))
		return c.seedPts
	}
	centers := append(c.seedPts[:0], reports[ai].Loc, reports[bi].Loc)
	if len(reports) < gridMinPoints {
		for _, r := range reports {
			if minDist2(r.Loc, centers) > r2 {
				centers = append(centers, r.Loc)
			}
		}
		c.seedPts = centers
		return centers
	}
	g := c.lazyGrid()
	built := len(centers)
	g.Rebuild(centers[:built], rError)
	for _, r := range reports {
		covered := g.AnyWithin2(r.Loc, rError)
		if !covered {
			for _, p := range centers[built:] {
				if r.Loc.Dist2(p) <= r2 {
					covered = true
					break
				}
			}
		}
		if covered {
			continue
		}
		centers = append(centers, r.Loc)
		if len(centers)-built >= 32+built/4 {
			built = len(centers)
			g.Rebuild(centers[:built], rError)
		}
	}
	c.seedPts = centers
	return centers
}

// farthestPair returns the indices of the two reports with the greatest
// pairwise distance and that squared distance — the lexicographically
// first such pair, as the paper's step 1 sort would list it. Small inputs
// scan all O(n²) pairs; past hullMinPoints the diameter is taken over the
// convex hull (the true farthest pair is always hull-to-hull).
func farthestPair(reports []Report) (ai, bi int, maxD2 float64) {
	if len(reports) >= hullMinPoints {
		return farthestPairHull(reports)
	}
	for i := range reports {
		for j := i + 1; j < len(reports); j++ {
			if d2 := reports[i].Loc.Dist2(reports[j].Loc); d2 > maxD2 {
				ai, bi, maxD2 = i, j, d2
			}
		}
	}
	return ai, bi, maxD2
}

// farthestPairHull computes the diameter pair via a monotone-chain convex
// hull: O(n log n) for the sort, O(h²) over the hull vertices — h is tiny
// for the uniform fields where n reaches this scale. Ties on the squared
// distance resolve to the lexicographically smallest index pair.
func farthestPairHull(reports []Report) (ai, bi int, maxD2 float64) {
	idx := make([]int, len(reports))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := reports[idx[a]].Loc, reports[idx[b]].Loc
		//lint:allow floateq total-order sort comparator; exact comparison is the point
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		//lint:allow floateq total-order sort comparator; exact comparison is the point
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return idx[a] < idx[b]
	})
	cross := func(o, a, b geo.Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	// The two chains hold at most every point once each.
	hull := make([]int, 0, 2*len(idx))
	// Lower then upper chain; non-left turns (including collinear points)
	// pop, so only extreme vertices survive.
	for _, i := range idx {
		for len(hull) >= 2 &&
			cross(reports[hull[len(hull)-2]].Loc, reports[hull[len(hull)-1]].Loc, reports[i].Loc) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	lower := len(hull) + 1
	for k := len(idx) - 2; k >= 0; k-- {
		i := idx[k]
		for len(hull) >= lower &&
			cross(reports[hull[len(hull)-2]].Loc, reports[hull[len(hull)-1]].Loc, reports[i].Loc) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	hull = hull[:len(hull)-1] // last point repeats the first
	ai, bi, maxD2 = 0, 0, -1
	for x := 0; x < len(hull); x++ {
		for y := x + 1; y < len(hull); y++ {
			i, j := hull[x], hull[y]
			if i > j {
				i, j = j, i
			}
			d2 := reports[i].Loc.Dist2(reports[j].Loc)
			//lint:allow floateq deterministic tie-break toward the lexicographically smallest pair
			if d2 > maxD2 || (d2 == maxD2 && (i < ai || (i == ai && j < bi))) {
				ai, bi, maxD2 = i, j, d2
			}
		}
	}
	if maxD2 < 0 {
		return 0, 0, 0
	}
	return ai, bi, maxD2
}

// assign groups every report with its nearest center (step 4) and sets
// each cluster's center to the member centroid. Because reports arrive in
// ascending Node order, each member list is node-sorted by construction.
// The member lists live in c.scratch, which Cluster sizes to the seed
// count, and the clusters in c.clusters; both are overwritten by the next
// call. At grid scale the per-report argmin runs as a nearest query whose
// (distance², index) comparator is the brute loop's first-strict-min rule
// exactly.
//
//hot:path
func (c *Clusterer) assign(reports []Report, centers []geo.Point) []EventCluster {
	members := c.scratch[:len(centers)]
	for i := range members {
		members[i] = members[i][:0]
	}
	if len(centers) >= gridMinPoints {
		g := c.lazyGrid()
		g.Rebuild(centers, geo.AutoCell(centers))
		for _, r := range reports {
			best, _ := g.Nearest(r.Loc)
			members[best] = append(members[best], r)
		}
	} else {
		for _, r := range reports {
			best, bestD2 := 0, r.Loc.Dist2(centers[0])
			for ci := 1; ci < len(centers); ci++ {
				if d2 := r.Loc.Dist2(centers[ci]); d2 < bestD2 {
					best, bestD2 = ci, d2
				}
			}
			members[best] = append(members[best], r)
		}
	}
	clusters := c.clusters[:0]
	for _, m := range members {
		if len(m) == 0 {
			continue // a merged-away or out-competed center
		}
		clusters = append(clusters, EventCluster{Center: reportCentroid(m), Reports: m})
	}
	c.clusters = clusters
	return clusters
}

// wc is a weighted center during step-5 merging.
type wc struct {
	p geo.Point
	w float64
}

// mergeCenters implements step 5: while any two centers lie within rError,
// replace them with their weighted average (weights = member counts). The
// historical loop restarts its lexicographic pair scan from the top after
// every merge; the grid path finds the same first qualifying pair via a
// range query per center, re-indexing after each merge.
func (c *Clusterer) mergeCenters(clusters []EventCluster, rError float64) []geo.Point {
	cs := c.wcs[:0]
	for _, cl := range clusters {
		cs = append(cs, wc{p: cl.Center, w: float64(len(cl.Reports))})
	}
	if len(cs) >= gridMinPoints {
		cs = c.mergeCentersGrid(cs, rError)
	} else {
		merged := true
		for merged {
			merged = false
		outer:
			for i := 0; i < len(cs); i++ {
				for j := i + 1; j < len(cs); j++ {
					if cs[i].p.Dist(cs[j].p) <= rError {
						cs = mergePair(cs, i, j)
						merged = true
						break outer
					}
				}
			}
		}
	}
	c.wcs = cs
	out := c.mergePts[:0]
	for _, w := range cs {
		out = append(out, w.p)
	}
	c.mergePts = out
	return out
}

// mergeCentersGrid is the grid-indexed pair search: for each center in
// ascending index order, the range query returns in-range partners in
// ascending index order, so the first partner with the larger index is
// the same pair the brute lexicographic scan finds. The query radius and
// the math.Hypot predicate match the brute comparison bit for bit.
func (c *Clusterer) mergeCentersGrid(cs []wc, rError float64) []wc {
	g := c.lazyGrid()
	for {
		pts := c.gridPts[:0]
		for _, w := range cs {
			pts = append(pts, w.p)
		}
		c.gridPts = pts
		g.Rebuild(pts, rError)
		merged := false
	scan:
		for i := 0; i < len(cs); i++ {
			c.rangeIDs = g.Range(pts[i], rError, c.rangeIDs)
			for _, j := range c.rangeIDs {
				if j <= i {
					continue
				}
				cs = mergePair(cs, i, j)
				merged = true
				break scan
			}
		}
		if !merged {
			return cs
		}
	}
}

// mergePair folds center j into center i (weighted average) and removes j.
func mergePair(cs []wc, i, j int) []wc {
	w := cs[i].w + cs[j].w
	// Both literals stay on the stack: WeightedCentroid inlines and keeps
	// neither.
	avg, ok := geo.WeightedCentroid(
		//lint:allow hotalloc does not escape (go build -gcflags=-m)
		[]geo.Point{cs[i].p, cs[j].p},
		//lint:allow hotalloc does not escape (go build -gcflags=-m)
		[]float64{cs[i].w, cs[j].w})
	if !ok {
		avg = cs[i].p
		w = 1
	}
	cs[i] = wc{p: avg, w: w}
	return append(cs[:j], cs[j+1:]...)
}

// sigScratch detects convergence of the refinement loop by comparing
// cluster constituency between consecutive rounds. It replaces a
// string-based fingerprint that allocated on every round: the partition is
// flattened into reusable int buffers — clusters visited in order of their
// smallest member ID, each contributing its member IDs plus a -1
// separator — and two rounds converge when the flattened forms match.
// (Partitions are equal iff these canonical forms are equal.)
type sigScratch struct {
	idx       []int
	cur, prev []int
	seeded    bool
}

// reset forgets the previous run's partition so a reused Clusterer cannot
// see a stale fingerprint as first-round convergence.
func (s *sigScratch) reset() { s.seeded = false }

// converged folds in the current round's clusters and reports whether the
// constituency is unchanged from the previous round.
func (s *sigScratch) converged(clusters []EventCluster) bool {
	// Order clusters by smallest member; Reports are node-sorted, so that
	// is Reports[0]. Insertion sort: the cluster count is tiny and the
	// order is nearly stable across rounds.
	s.idx = s.idx[:0]
	for i := range clusters {
		s.idx = append(s.idx, i)
	}
	for i := 1; i < len(s.idx); i++ {
		for j := i; j > 0 && clusters[s.idx[j]].Reports[0].Node < clusters[s.idx[j-1]].Reports[0].Node; j-- {
			s.idx[j], s.idx[j-1] = s.idx[j-1], s.idx[j]
		}
	}
	s.cur = s.cur[:0]
	for _, ci := range s.idx {
		for _, r := range clusters[ci].Reports {
			s.cur = append(s.cur, r.Node)
		}
		s.cur = append(s.cur, -1)
	}
	same := s.seeded && len(s.cur) == len(s.prev)
	if same {
		for i, v := range s.cur {
			if s.prev[i] != v {
				same = false
				break
			}
		}
	}
	s.cur, s.prev = s.prev, s.cur
	s.seeded = true
	return same
}

// sortClusters orders clusters by descending size then by center for
// deterministic output. slices.SortFunc runs the same pdqsort as
// sort.Slice, and the comparator is negative exactly where the old less
// function was true, so the order is unchanged, ties included.
func sortClusters(clusters []EventCluster) {
	slices.SortFunc(clusters, func(a, b EventCluster) int {
		if n := cmp.Compare(len(b.Reports), len(a.Reports)); n != 0 {
			return n
		}
		//lint:allow floateq total-order tie-break comparator; exact comparison is the point
		if a.Center.X != b.Center.X {
			if a.Center.X < b.Center.X {
				return -1
			}
			return 1
		}
		if a.Center.Y < b.Center.Y {
			return -1
		}
		return 0
	})
}

// reportCentroid is geo.Centroid over the report locations without
// materializing an intermediate point slice; the summation order is the
// same, so the result is bit-identical.
func reportCentroid(reports []Report) geo.Point {
	var sx, sy float64
	for _, r := range reports {
		sx += r.Loc.X
		sy += r.Loc.Y
	}
	n := float64(len(reports))
	return geo.Point{X: sx / n, Y: sy / n}
}

func minDist2(p geo.Point, centers []geo.Point) float64 {
	best := p.Dist2(centers[0])
	for _, c := range centers[1:] {
		if d2 := p.Dist2(c); d2 < best {
			best = d2
		}
	}
	return best
}
