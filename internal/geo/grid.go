package geo

import (
	"math"
	"slices"
)

// maxGridCells caps the bucket array so a pathological coordinate spread
// (a handful of points light-years apart with a tiny cell size) cannot
// allocate an unbounded grid. When the requested cell size would exceed
// the cap the cell is doubled until the grid fits; the result is still a
// pure function of the inputs, so determinism is unaffected.
const maxGridCells = 1 << 22

// Grid is a uniform spatial index over a fixed slice of points — the
// replacement for the O(n²) pairwise scans that cluster formation, event
// injection, and mesh neighbor resolution performed at field scale.
//
// Buckets are stored CSR-style: cell c owns order[start[c]:start[c+1]],
// and within a cell point indices are ascending. Every query visits its
// candidate cells in fixed row-major order (y outer, x inner) and breaks
// distance ties by the smaller point index, so results are byte-identical
// to the brute-force loops they replace (docs/DETERMINISM.md invariant 7).
// The differential fuzz targets in grid_fuzz_test.go pin that equivalence.
//
// A Grid is reusable: Rebuild re-indexes a new point set in place,
// recycling the bucket arrays, so steady-state re-indexing (e.g. k-means
// centers every refinement round) does not allocate.
type Grid struct {
	pts        []Point
	cell       float64
	min        Point
	cols, rows int

	start  []int32 // CSR offsets: len cols*rows+1
	order  []int32 // point indices grouped by cell, ascending within a cell
	cellOf []int32 // scratch: per-point cell index during Rebuild
	cursor []int32 // scratch: per-cell write cursor during Rebuild
}

// NewGrid returns an empty grid; call Rebuild before querying.
func NewGrid() *Grid { return &Grid{} }

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// CellSize returns the effective cell size after the Rebuild cap.
func (g *Grid) CellSize() float64 { return g.cell }

// AutoCell returns a cell size targeting O(1) points per cell for a point
// set with no natural query radius (e.g. cluster-head affiliation, where
// the head density — not a radio range — sets the scale): the larger
// bounding-box extent divided by ceil(sqrt(n)). Falls back to 1 for
// degenerate inputs (empty, coincident, or non-finite extents).
func AutoCell(pts []Point) float64 {
	if len(pts) == 0 {
		return 1
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	ext := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	c := ext / math.Ceil(math.Sqrt(float64(len(pts))))
	if !(c > 0) || math.IsInf(c, 0) {
		return 1
	}
	return c
}

// Rebuild re-indexes pts with the given cell size, reusing the grid's
// internal arrays. The grid keeps a reference to pts; callers must not
// mutate the slice while querying. cell must be positive and finite.
func (g *Grid) Rebuild(pts []Point, cell float64) {
	if !(cell > 0) || math.IsInf(cell, 0) {
		panic("geo: grid cell size must be positive and finite")
	}
	g.pts = pts
	n := len(pts)
	if n == 0 {
		g.cell = cell
		g.cols, g.rows = 0, 0
		g.start = g.start[:0]
		g.order = g.order[:0]
		return
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	g.min = lo
	// Every stored point maps to [0, cols)×[0, rows): the division is
	// monotone, so int((p.X-lo.X)/cell) <= int((hi.X-lo.X)/cell) = cols-1.
	for {
		g.cols = int((hi.X-lo.X)/cell) + 1
		g.rows = int((hi.Y-lo.Y)/cell) + 1
		if g.cols <= maxGridCells && g.rows <= maxGridCells &&
			g.cols*g.rows <= maxGridCells {
			break
		}
		cell *= 2
	}
	g.cell = cell

	nc := g.cols * g.rows
	g.start = growInt32(g.start, nc+1)
	g.cursor = growInt32(g.cursor, nc)
	g.cellOf = growInt32(g.cellOf, n)
	g.order = growInt32(g.order, n)
	for c := range g.start[:nc+1] {
		g.start[c] = 0
	}
	for i, p := range pts {
		c := int32(g.cellY(p.Y)*g.cols + g.cellX(p.X))
		g.cellOf[i] = c
		g.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.start[c+1] += g.start[c]
		g.cursor[c] = g.start[c]
	}
	// Iterating point indices in ascending order fills each cell's span
	// in ascending index order — the within-cell invariant queries rely on.
	for i := range pts {
		c := g.cellOf[i]
		g.order[g.cursor[c]] = int32(i)
		g.cursor[c]++
	}
}

// growInt32 returns s with length n, reallocating only when capacity is
// insufficient.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// cellX maps a stored (in-bounds) x coordinate to its column.
//
//hot:path
func (g *Grid) cellX(x float64) int { return int((x - g.min.X) / g.cell) }

// cellY maps a stored (in-bounds) y coordinate to its row.
//
//hot:path
func (g *Grid) cellY(y float64) int { return int((y - g.min.Y) / g.cell) }

// virtCell maps an arbitrary query coordinate to a virtual cell index,
// which may lie outside [0, cols)×[0, rows). math.Floor (not int
// truncation) keeps negative offsets on the correct side.
//
//hot:path
func (g *Grid) virtCellX(x float64) int { return int(math.Floor((x - g.min.X) / g.cell)) }

//hot:path
func (g *Grid) virtCellY(y float64) int { return int(math.Floor((y - g.min.Y) / g.cell)) }

// Range appends to out the indices of all points p with pts[i].Dist(p) <= r
// — the exact math.Hypot predicate of the brute-force loops it replaces —
// and returns out sorted ascending, the canonical order a brute scan over
// ascending indices produces. Candidate cells are visited in row-major
// order and padded by one cell on every side so float rounding at the disk
// boundary can never exclude a qualifying point.
//
//hot:path
func (g *Grid) Range(p Point, r float64, out []int) []int {
	out = out[:0]
	if len(g.pts) == 0 || !(r >= 0) {
		return out
	}
	x0, x1 := g.clampX(g.virtCellX(p.X-r)-1), g.clampX(g.virtCellX(p.X+r)+1)
	y0, y1 := g.clampY(g.virtCellY(p.Y-r)-1), g.clampY(g.virtCellY(p.Y+r)+1)
	for y := y0; y <= y1; y++ {
		row := y * g.cols
		for x := x0; x <= x1; x++ {
			c := row + x
			for _, id := range g.order[g.start[c]:g.start[c+1]] {
				if g.pts[id].Dist(p) <= r {
					out = append(out, int(id))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// AnyWithin2 reports whether any indexed point q satisfies q.Dist2(p) <=
// r*r — the exact squared-distance predicate of the k-means seeding scan.
// The early exit is safe because the result is a bare boolean.
//
//hot:path
func (g *Grid) AnyWithin2(p Point, r float64) bool {
	if len(g.pts) == 0 || !(r >= 0) {
		return false
	}
	r2 := r * r
	x0, x1 := g.clampX(g.virtCellX(p.X-r)-1), g.clampX(g.virtCellX(p.X+r)+1)
	y0, y1 := g.clampY(g.virtCellY(p.Y-r)-1), g.clampY(g.virtCellY(p.Y+r)+1)
	for y := y0; y <= y1; y++ {
		row := y * g.cols
		for x := x0; x <= x1; x++ {
			c := row + x
			for _, id := range g.order[g.start[c]:g.start[c+1]] {
				if g.pts[id].Dist2(p) <= r2 {
					return true
				}
			}
		}
	}
	return false
}

// Nearest returns the index of the point minimizing (Dist2(p), index) —
// the argmin a brute loop keeping the first strictly-smaller squared
// distance produces. ok is false only when the grid is empty.
//
//hot:path
func (g *Grid) Nearest(p Point) (idx int, ok bool) { return g.NearestClamped(p, 0) }

// NearestClamped returns the index of the point minimizing
// (max(Dist2(p), clamp²), index). A positive clamp makes every point
// closer than clamp compare equal — the comparator LEACH affiliation
// needs, because RSS clamps distances below 1 m before the path-loss
// curve and is otherwise strictly decreasing in distance.
//
//hot:path
func (g *Grid) NearestClamped(p Point, clamp float64) (idx int, ok bool) {
	if len(g.pts) == 0 {
		return 0, false
	}
	clamp2 := clamp * clamp
	cx, cy := g.virtCellX(p.X), g.virtCellY(p.Y)
	maxRing := maxInt(maxInt(absInt(cx), absInt(g.cols-1-cx)),
		maxInt(absInt(cy), absInt(g.rows-1-cy)))
	best := -1
	bestE2 := math.Inf(1)
	for m := g.firstRing(cx, cy); m <= maxRing; m++ {
		best, bestE2 = g.scanRing(p, cx, cy, m, clamp2, best, bestE2)
		if best >= 0 && m >= 2 {
			// Points in rings > m lie at true distance >= m*cell; the
			// one-ring slack (m-1 instead of m) absorbs any float
			// rounding in the bound itself, so ties at the frontier are
			// still seen and resolved by the (e2, index) comparator.
			lb := float64(m-1) * g.cell
			if lb*lb > bestE2 {
				break
			}
		}
	}
	return best, true
}

// NearestByDist returns the index of the point minimizing
// (key(Dist(p)), index), where key must be non-decreasing in the true
// (math.Hypot) distance. It generalizes Nearest to monotone link metrics:
// LEACH affiliation maximizes received signal strength, which is
// RSS(Dist) with RSS non-increasing, so minimizing key = -RSS(Dist)
// reproduces the brute argmax bit-for-bit — including ties where float
// rounding of the path-loss curve maps distinct distances to the same
// RSS, which the comparator resolves to the smaller index exactly as a
// first-strict-winner scan over ascending indices does. ok is false only
// when the grid is empty.
//
//hot:path
func (g *Grid) NearestByDist(p Point, key func(d float64) float64) (idx int, ok bool) {
	if len(g.pts) == 0 {
		return 0, false
	}
	cx, cy := g.virtCellX(p.X), g.virtCellY(p.Y)
	maxRing := maxInt(maxInt(absInt(cx), absInt(g.cols-1-cx)),
		maxInt(absInt(cy), absInt(g.rows-1-cy)))
	b := byDist{idx: -1, d: math.Inf(1), key: math.Inf(1), over: math.Inf(1)}
	for m := g.firstRing(cx, cy); m <= maxRing; m++ {
		g.scanRingBy(p, cx, cy, m, key, &b)
		if b.idx >= 0 && m >= 2 {
			// Rings > m hold points at true distance >= m*cell (one-ring
			// slack as in NearestClamped); key is monotone, so once even
			// the slackened bound keys strictly above the incumbent no
			// later ring can win or tie.
			if key(float64(m-1)*g.cell) > b.key {
				break
			}
		}
	}
	return b.idx, true
}

// firstRing returns the Chebyshev distance from virtual cell (cx, cy) to
// the grid's cells. Every nearer ring lies wholly outside the grid and
// holds no point, so a nearest query far from the field starts its ring
// search here instead of walking thousands of empty rings.
func (g *Grid) firstRing(cx, cy int) int {
	return maxInt(maxInt(maxInt(-cx, cx-(g.cols-1)), maxInt(-cy, cy-(g.rows-1))), 0)
}

// byDist is the running (key, index) minimum of a NearestByDist query,
// with the incumbent's distance d kept beside its key, and over, the
// smallest distance seen whose key is strictly above the incumbent's.
type byDist struct {
	idx          int
	d, key, over float64
}

// scanRingBy is scanRing for the NearestByDist comparator.
//
//hot:path
func (g *Grid) scanRingBy(p Point, cx, cy, m int, key func(d float64) float64, b *byDist) {
	if m == 0 {
		g.scanCellBy(p, cx, cy, key, b)
		return
	}
	// Only the ring's rows and columns inside the grid can hold points.
	for y := max(cy-m, 0); y <= min(cy+m, g.rows-1); y++ {
		if y == cy-m || y == cy+m {
			for x := max(cx-m, 0); x <= min(cx+m, g.cols-1); x++ {
				g.scanCellBy(p, x, y, key, b)
			}
		} else {
			g.scanCellBy(p, cx-m, y, key, b)
			g.scanCellBy(p, cx+m, y, key, b)
		}
	}
}

// scanCellBy folds one cell's points into the running (key, index)
// minimum. key is non-decreasing, so two kinds of point are skipped
// without evaluating it: one farther than over, whose key is strictly
// above the incumbent's, and one farther than the incumbent with a larger
// index, whose key is at least the incumbent's and which loses a tie.
// Only a point nearer than every known loser can then cost a key call,
// so affiliation evaluates the path-loss curve for a few heads per member
// instead of every head in the searched rings.
//
//hot:path
func (g *Grid) scanCellBy(p Point, x, y int, key func(d float64) float64, b *byDist) {
	if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
		return
	}
	c := y*g.cols + x
	for _, id := range g.order[g.start[c]:g.start[c+1]] {
		d := g.pts[id].Dist(p)
		if d > b.over || (d > b.d && int(id) > b.idx) {
			continue
		}
		k := key(d)
		//lint:allow floateq deterministic tie-break: equal keys fall through to the smaller index, mirroring the brute first-strict-win loop
		if k < b.key || (k == b.key && int(id) < b.idx) {
			b.idx, b.d, b.key = int(id), d, k
		} else if k > b.key {
			b.over = d
		}
	}
}

// scanRing scans the cells at Chebyshev distance m from (cx, cy) in
// row-major order, folding each candidate into the (e2, index) minimum.
//
//hot:path
func (g *Grid) scanRing(p Point, cx, cy, m int, clamp2 float64, best int, bestE2 float64) (int, float64) {
	if m == 0 {
		return g.scanCell(p, cx, cy, clamp2, best, bestE2)
	}
	// Only the ring's rows and columns inside the grid can hold points.
	for y := max(cy-m, 0); y <= min(cy+m, g.rows-1); y++ {
		if y == cy-m || y == cy+m {
			for x := max(cx-m, 0); x <= min(cx+m, g.cols-1); x++ {
				best, bestE2 = g.scanCell(p, x, y, clamp2, best, bestE2)
			}
		} else {
			best, bestE2 = g.scanCell(p, cx-m, y, clamp2, best, bestE2)
			best, bestE2 = g.scanCell(p, cx+m, y, clamp2, best, bestE2)
		}
	}
	return best, bestE2
}

// scanCell folds one cell's points into the running (e2, index) minimum.
//
//hot:path
func (g *Grid) scanCell(p Point, x, y int, clamp2 float64, best int, bestE2 float64) (int, float64) {
	if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
		return best, bestE2
	}
	c := y*g.cols + x
	for _, id := range g.order[g.start[c]:g.start[c+1]] {
		e2 := g.pts[id].Dist2(p)
		if e2 < clamp2 {
			e2 = clamp2
		}
		//lint:allow floateq deterministic tie-break: equal keys fall through to the smaller index, mirroring the brute first-strict-min loop
		if e2 < bestE2 || (e2 == bestE2 && int(id) < best) {
			best, bestE2 = int(id), e2
		}
	}
	return best, bestE2
}

func (g *Grid) clampX(x int) int { return clampInt(x, 0, g.cols-1) }
func (g *Grid) clampY(y int) int { return clampInt(y, 0, g.rows-1) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
