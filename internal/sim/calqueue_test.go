package sim

import (
	"testing"
)

// calOf digs the calendar queue out of a kernel for white-box assertions.
func calOf(t *testing.T, k *Kernel) *calQueue {
	t.Helper()
	c, ok := k.sched.(*calQueue)
	if !ok {
		t.Fatalf("kernel scheduler is %T, want *calQueue", k.sched)
	}
	return c
}

// TestCalendarGrowsAndShrinksWithPopulation pins the resize policy: bucket
// count doubles past 2× occupancy and shrinks to fit its population once
// removals under half occupancy number twice the buckets, with a floor
// at calMinBuckets.
func TestCalendarGrowsAndShrinksWithPopulation(t *testing.T) {
	k := New()
	c := calOf(t, k)
	if got := len(c.buckets); got != calMinBuckets {
		t.Fatalf("initial buckets = %d, want %d", got, calMinBuckets)
	}
	const n = 10_000
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, k.After(Duration(1+i), func() {}))
	}
	grown := len(c.buckets)
	if grown < n/2 {
		t.Fatalf("buckets after %d schedules = %d, want >= %d (2x-occupancy growth)", n, grown, n/2)
	}
	// Mass cancellation leaves fewer than 2×grown removals under half
	// occupancy, so the calendar keeps its size; a further 2×grown
	// schedule-and-cancel pairs walk it back down.
	for _, tm := range timers[:n-5] {
		if !tm.Stop() {
			t.Fatal("Stop failed on a pending timer")
		}
	}
	if got := len(c.buckets); got != grown {
		t.Fatalf("buckets right after mass cancel = %d, want %d (damped shrink)", got, grown)
	}
	for i := 0; i < 2*grown; i++ {
		k.After(Duration(1+i), func() {}).Stop()
	}
	if shrunk := len(c.buckets); shrunk >= grown {
		t.Fatalf("buckets after %d more cancels = %d, want < %d (shrink)", 2*grown, shrunk, grown)
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", k.Pending())
	}
	k.RunAll()
	if k.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", k.Fired())
	}
}

// TestCalendarSwingKeepsBuckets pins the shrink damping: a population
// that swings between empty and 64 near-term timers, the reliable report
// path's pattern, grows the calendar once and then never resizes it,
// neither as it drains nor as it refills.
func TestCalendarSwingKeepsBuckets(t *testing.T) {
	k := New()
	c := calOf(t, k)
	timers := make([]Timer, 64)
	settled := 0
	for i := 0; i < 100; i++ {
		for j := range timers {
			timers[j] = k.After(Duration(1+j), func() {})
		}
		full := len(c.buckets)
		for _, tm := range timers[:48] {
			tm.Stop()
		}
		for k.Pending() > 0 {
			k.Step()
		}
		if got := len(c.buckets); got != full || (settled != 0 && got != settled) {
			t.Fatalf("swing %d: %d buckets when full, %d drained, %d after the first swing; want one size",
				i, full, got, settled)
		}
		settled = full
	}
}

// TestCalendarSparseTailShrinks pins the scan-work half of the shrink
// rule: after a mass cancel leaves 5 of 10,000 timers standing, each pop
// of the sparse tail scans hundreds of empty days, and that wasted
// scanning shrinks the calendar to calMinBuckets within a few dozen pops,
// not the thousands of cheap operations it would take to count down
// alone.
func TestCalendarSparseTailShrinks(t *testing.T) {
	k := New()
	c := calOf(t, k)
	const n, standing = 10_000, 5
	const gap = n / standing
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, k.After(Duration(1+i), func() {}))
	}
	grown := len(c.buckets)
	for i, tm := range timers {
		if (i+1)%gap != 0 {
			tm.Stop()
		}
	}
	if k.Pending() != standing {
		t.Fatalf("Pending() = %d, want %d", k.Pending(), standing)
	}
	// Each fired timer is replaced a whole tail ahead, so the population
	// stays at 5 timers gap time units apart.
	const bound = 32
	for pops := 1; pops <= bound; pops++ {
		if !k.Step() {
			t.Fatal("queue drained")
		}
		k.After(standing*gap, func() {})
		if len(c.buckets) == calMinBuckets {
			return
		}
	}
	t.Fatalf("buckets after %d sparse pops = %d (grown to %d), want %d", bound, len(c.buckets), grown, calMinBuckets)
}

// TestCalendarAllSameInstant is the degenerate width edge: thousands of
// events at one instant give the width estimator zero gaps to work with,
// so the width must survive unchanged (never collapse to zero) and the
// burst must still dispatch in exact FIFO order.
func TestCalendarAllSameInstant(t *testing.T) {
	k := New()
	c := calOf(t, k)
	const n = 5000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		if _, err := k.At(7, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if !(c.width > 0) {
		t.Fatalf("width degenerated to %v under same-instant load", c.width)
	}
	k.RunAll()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant burst broke FIFO at %d: got %d", i, v)
		}
	}
}

// TestCalendarFarFutureSparse drives the direct-search fallback: a handful
// of events scattered across an enormous horizon means year scans come up
// empty and the global-minimum search must keep exact time order, with
// near-term events interleaving correctly as they are added mid-run.
func TestCalendarFarFutureSparse(t *testing.T) {
	k := New()
	var got []float64
	ats := []Time{3, 1e12, 5e6, 2, 7e9, 4e3, 1e12, 8}
	for _, at := range ats {
		at := at
		if _, err := k.At(at, func() { got = append(got, float64(at)) }); err != nil {
			t.Fatal(err)
		}
	}
	// A handler near the front schedules another far-future event.
	k.After(1, func() {
		k.After(3e6, func() { got = append(got, -1) }) // fires at 3e6+1
	})
	k.RunAll()
	expect := []float64{2, 3, 8, 4e3, -1, 5e6, 7e9, 1e12, 1e12}
	if len(got) != len(expect) {
		t.Fatalf("fired %d events: %v", len(got), got)
	}
	for i, v := range got {
		//lint:allow floateq exact dispatch-order check
		if v != expect[i] {
			t.Fatalf("sparse dispatch order[%d] = %v, want %v (full: %v)", i, v, expect[i], got)
		}
	}
}

// TestCalendarStopLastEventInBucket pins handle invalidation on the chain
// path: cancelling the only event of a bucket empties that day, the
// generation counter keeps the stale handle inert once the record is
// recycled, and surrounding days are untouched.
func TestCalendarStopLastEventInBucket(t *testing.T) {
	k := New()
	c := calOf(t, k)
	// Three events in three distinct days under the initial width of 1.
	a := k.After(0.5, func() {})
	fired := 0
	k.After(1.5, func() { fired++ })
	k.After(2.5, func() { fired++ })
	if c.n != 3 {
		t.Fatalf("n = %d, want 3", c.n)
	}
	if !a.Stop() {
		t.Fatal("Stop failed on the lone event of its bucket")
	}
	if a.Active() {
		t.Fatal("stopped timer still active")
	}
	if a.When() != End {
		t.Fatalf("stopped When() = %v, want End", a.When())
	}
	// The record is on the free list now; the next schedule reuses it and
	// the stale handle must not be able to touch the new life.
	b := k.After(3.5, func() { fired++ })
	if a.Stop() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	k.RunAll()
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if b.Active() {
		t.Fatal("fired timer still active")
	}
}

// TestCalendarWidthAdaptsToHeadGaps checks the estimator samples at the
// head: a dense near-term population plus one far-future straggler must
// produce a near-term-sized width, not one stretched by the straggler.
func TestCalendarWidthAdaptsToHeadGaps(t *testing.T) {
	k := New()
	c := calOf(t, k)
	k.After(1e9, func() {}) // straggler
	for i := 0; i < 2000; i++ {
		k.After(Duration(float64(i)*0.25), func() {})
	}
	if c.width > 100 {
		t.Fatalf("width = %v: estimator let a far-future straggler stretch the calendar", c.width)
	}
	if c.width <= 0 {
		t.Fatalf("width = %v, want > 0", c.width)
	}
	k.RunAll()
	if k.Fired() != 2001 {
		t.Fatalf("Fired() = %d, want 2001", k.Fired())
	}
}

// TestCalendarReschedulesAfterDrain: a queue that empties completely and
// then refills (common between experiment rounds) must keep working with
// the cursor state left by the last pop.
func TestCalendarReschedulesAfterDrain(t *testing.T) {
	k := New()
	for round := 0; round < 5; round++ {
		base := k.Now()
		var got []float64
		for _, off := range []Duration{5, 1, 3, 2, 4} {
			off := off
			k.After(off, func() { got = append(got, float64(base.Add(off))) })
		}
		k.RunAll()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("round %d dispatched out of order: %v", round, got)
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("round %d left %d pending", round, k.Pending())
		}
	}
}

// TestCalendarStress mirrors the heap's million-event stress run on the
// calendar implementation explicitly (the shared TestKernelStress runs
// under the process default, which the CI matrix flips).
func TestCalendarStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	k := New()
	const n = 500_000
	fired := 0
	var timers []Timer
	for i := 0; i < n; i++ {
		at := Time((i * 7919) % 104729) // pseudo-shuffled times
		tm, err := k.At(at, func() { fired++ })
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			timers = append(timers, tm)
		}
	}
	cancelled := 0
	for _, tm := range timers {
		if tm.Stop() {
			cancelled++
		}
	}
	k.RunAll()
	if fired != n-cancelled {
		t.Fatalf("fired %d, want %d", fired, n-cancelled)
	}
}
