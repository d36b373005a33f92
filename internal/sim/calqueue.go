package sim

import "math"

// calQueue is the ns-2-style calendar-queue scheduler (R. Brown, "Calendar
// Queues: A Fast O(1) Priority Queue Implementation for the Simulation
// Event Set Problem", CACM 1988): events hash by time into one "day"
// bucket of a circular calendar whose "year" spans nbuckets × width time
// units. Push inserts into the target bucket's sorted chain; pop scans at
// most one year of days from the cursor. With bucket count tracking the
// population (doubling/halving on over/under-population) and bucket width
// tracking the inter-event gap near the head of the queue, both are O(1)
// amortized — versus the heap's O(log n) — once thousands of timers stand
// in the queue.
//
// Shrinking is damped by the work an oversized calendar wastes: under
// half occupancy each removal counts one, and each pop or horizon probe
// counts every bucket it visited. Once that count reaches twice the
// bucket count, the calendar shrinks straight to the size its population
// fits. A population that drains and refills — the kernel's usual burst
// of near-term timers — then keeps its calendar instead of rebuilding it
// on every swing, while a sparse tail left by a mass cancel, whose pops
// scan whole years of empty days, shrinks within a few pops. Either way
// a shrink's O(buckets) relink is paid for by as much wasted work.
//
// Determinism contract: dispatch order is the exact (at, seq) total order
// of the binary-heap oracle the differential tests replay against
// (heap_test.go). Two properties make that exact rather than approximate:
//
//   - Every queued event carries its virtual day number ev.vb =
//     floor(at/width), recomputed under the current width on every (re-)
//     insertion. floor is monotone, so vb orders consistently with time,
//     and equal times always share a day — the year scan below never has
//     to compare a float against an accumulated bucket-top edge, which is
//     where naive calendar queues lose exactness.
//   - Within a bucket the chain is kept sorted by (at, seq), so the chain
//     head is the day's true minimum and equal-time events dispatch FIFO.
//
// The year scan pops the first head whose vb matches the cursor's day; if
// a whole year passes without a hit (a sparse far-future population), a
// direct search over bucket heads — each already its bucket's minimum —
// finds the exact global minimum.
type calQueue struct {
	buckets []calBucket
	// width is the current bucket ("day") width in time units, > 0.
	width float64
	// n is the queued event count.
	n int
	// cur is the virtual day of the last popped event: the year scan
	// resumes here. Queued events always have vb >= cur because the
	// kernel never schedules before the clock.
	cur int64
	// lastAt is the time of the last popped event; resizes re-derive cur
	// from it under the new width.
	lastAt Time
	// resizing suppresses nested resizes while newWidth samples the
	// queue through the normal pop/insert path.
	resizing bool
	// lean counts the work done under half occupancy — one per removal,
	// the buckets visited per pop — since the population last stood at
	// half occupancy or the calendar resized; the calendar shrinks when
	// it reaches twice the bucket count.
	lean int
}

// calBucket is one day's chain, doubly linked through the event records
// themselves (no per-entry allocation) and kept sorted by (at, seq).
type calBucket struct {
	head, tail *event
}

const (
	// calMinBuckets floors the calendar size; tiny queues stay tiny.
	calMinBuckets = 4
	// calInitWidth is the day width before the first adaptive estimate.
	calInitWidth = 1.0
	// calSampleMax caps how many head events newWidth inspects, keeping
	// resize cost O(population) for the relink plus O(1) for the width
	// estimate (ns-2 samples 25 the same way).
	calSampleMax = 25
)

func newCalQueue() *calQueue {
	return &calQueue{
		buckets: make([]calBucket, calMinBuckets),
		width:   calInitWidth,
	}
}

func (c *calQueue) len() int { return c.n }

// vbOf maps a time to its virtual day under the current width. Values so
// far in the future that the day number would overflow int64 clamp to
// MaxInt64; clamped events all share one day and are ordered exactly by
// the in-bucket sort and the direct-search fallback.
func (c *calQueue) vbOf(at Time) int64 {
	q := math.Floor(float64(at) / c.width)
	if q >= math.MaxInt64 {
		return math.MaxInt64
	}
	if q < 0 {
		return 0
	}
	return int64(q)
}

// eventAfter reports whether a orders strictly after b in the (at, seq)
// total order every scheduler must honor.
func eventAfter(a, b *event) bool {
	//lint:allow floateq total-order tie-break comparator; exact comparison is the point
	if a.at != b.at {
		return a.at > b.at
	}
	return a.seq > b.seq
}

func (c *calQueue) push(ev *event) {
	ev.vb = c.vbOf(ev.at)
	c.insert(ev)
	c.n++
	if c.n >= len(c.buckets)/2 {
		c.lean = 0
	}
	if !c.resizing && c.n > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// insert links ev into its day's chain, scanning from the tail: pushes
// land at or near the end of their bucket in the common case (monotone
// schedules, FIFO ties), so the scan is O(1) amortized.
func (c *calQueue) insert(ev *event) {
	i := int(ev.vb % int64(len(c.buckets)))
	ev.index = i
	b := &c.buckets[i]
	p := b.tail
	for p != nil && eventAfter(p, ev) {
		p = p.prev
	}
	if p == nil { // new chain head
		ev.prev = nil
		ev.next = b.head
		if b.head != nil {
			b.head.prev = ev
		} else {
			b.tail = ev
		}
		b.head = ev
	} else { // after p
		ev.prev = p
		ev.next = p.next
		if p.next != nil {
			p.next.prev = ev
		} else {
			b.tail = ev
		}
		p.next = ev
	}
}

// unlink removes ev from its day's chain and marks it off-queue.
func (c *calQueue) unlink(ev *event) {
	b := &c.buckets[ev.index]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.prev, ev.next = nil, nil
	ev.index = -1
	c.n--
}

func (c *calQueue) remove(ev *event) {
	c.unlink(ev)
	c.maybeShrink(1)
}

// maybeShrink runs after every removal, pop and horizon probe with the
// work it did: once lean reaches twice the bucket count, it shrinks the
// calendar to the fewest buckets (at least calMinBuckets, doubling from
// there) that hold the population without tripping the 2× growth rule.
func (c *calQueue) maybeShrink(work int) {
	if c.resizing || len(c.buckets) <= calMinBuckets {
		return
	}
	if c.n >= len(c.buckets)/2 {
		c.lean = 0
		return
	}
	c.lean += work
	if c.lean >= 2*len(c.buckets) {
		nb := calMinBuckets
		for 2*nb < c.n {
			nb *= 2
		}
		c.resize(nb)
	}
}

func (c *calQueue) popUntil(horizon Time) *event {
	if c.n == 0 {
		return nil
	}
	nb := int64(len(c.buckets))
	vb := c.cur
	for k := int64(0); k < nb; k++ {
		b := &c.buckets[int(vb%nb)]
		if head := b.head; head != nil && head.vb == vb {
			if head.at > horizon {
				c.maybeShrink(int(k) + 1)
				return nil
			}
			c.cur = vb
			c.lastAt = head.at
			c.unlink(head)
			c.maybeShrink(int(k) + 1)
			return head
		}
		if vb == math.MaxInt64 {
			break // clamp region: only the direct search orders it exactly
		}
		vb++
	}
	// A whole year without a hit: the population is sparse relative to
	// the calendar span. Fall back to an exact direct search over the
	// bucket heads (each already its bucket's minimum).
	var min *event
	for i := range c.buckets {
		if h := c.buckets[i].head; h != nil && (min == nil || eventAfter(min, h)) {
			min = h
		}
	}
	// The year scan and the direct search each visited every bucket.
	if min.at > horizon {
		c.maybeShrink(2 * int(nb))
		return nil
	}
	c.cur = min.vb
	c.lastAt = min.at
	c.unlink(min)
	c.maybeShrink(2 * int(nb))
	return min
}

// resize rebuilds the calendar with nb buckets and a freshly estimated
// width, relinking every queued event. The per-bucket sorted insert makes
// the result independent of the relink walk order, so resizing never
// perturbs dispatch order.
func (c *calQueue) resize(nb int) {
	if nb < calMinBuckets {
		nb = calMinBuckets
	}
	if nb == len(c.buckets) {
		return
	}
	c.resizing = true
	c.width = c.newWidth()
	old := c.buckets
	c.buckets = make([]calBucket, nb)
	for i := range old {
		for ev := old[i].head; ev != nil; {
			next := ev.next
			ev.prev, ev.next = nil, nil
			ev.vb = c.vbOf(ev.at)
			c.insert(ev)
			ev = next
		}
	}
	c.cur = c.vbOf(c.lastAt)
	c.resizing = false
	c.lean = 0
}

// newWidth estimates the day width that keeps head-of-queue days at O(1)
// occupancy: it pops a small sample of the earliest events through the
// normal path, re-inserts them, and returns three times the average gap
// between consecutive sampled times after trimming outlier gaps (Brown's
// estimator, as in ns-2). Sampling at the head rather than across the
// whole population keeps one far-future stray from inflating the width
// and collapsing the near-term events into a single day.
func (c *calQueue) newWidth() float64 {
	if c.n < 2 {
		return c.width
	}
	s := 5 + c.n/10
	if s > calSampleMax {
		s = calSampleMax
	}
	if s > c.n {
		s = c.n
	}
	saveCur, saveLast := c.cur, c.lastAt
	sample := make([]*event, 0, calSampleMax)
	for len(sample) < s {
		sample = append(sample, c.popUntil(End))
	}
	for _, ev := range sample {
		// Width is unchanged here, but re-deriving vb keeps insert's
		// preconditions obvious.
		ev.vb = c.vbOf(ev.at)
		c.insert(ev)
		c.n++
	}
	c.cur, c.lastAt = saveCur, saveLast

	var sum float64
	for i := 1; i < len(sample); i++ {
		sum += float64(sample[i].at - sample[i-1].at)
	}
	avg := sum / float64(len(sample)-1)
	if !(avg > 0) || math.IsInf(avg, 0) {
		return c.width // all sampled events simultaneous (or degenerate)
	}
	// Trim gaps >= 2×avg — they separate event clusters rather than
	// describe intra-cluster spacing — and average the rest.
	var trimmed float64
	count := 0
	for i := 1; i < len(sample); i++ {
		if g := float64(sample[i].at - sample[i-1].at); g < 2*avg {
			trimmed += g
			count++
		}
	}
	refined := avg
	if count > 0 && trimmed > 0 {
		refined = trimmed / float64(count)
	}
	w := 3 * refined
	if !(w > 0) || math.IsInf(w, 0) {
		return c.width
	}
	return w
}
