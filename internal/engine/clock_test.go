package engine

import (
	"slices"

	"github.com/tibfit/tibfit/internal/sim"
)

// fakeClock is a Clock under test control: Now reads a virtual time the
// test sets, AfterFunc only records the callback and its deadline, and
// fire runs the recorded callbacks that are due. No timer goroutine ever
// runs, so tests decide exactly when a backstop wakes.
type fakeClock struct {
	now   sim.Time
	armed []fakeTimer
}

// fakeTimer is one recorded AfterFunc: its virtual deadline and callback.
type fakeTimer struct {
	at sim.Time
	fn func()
}

// newFakeClock returns a fake clock at time 0 and a setter for its now.
func newFakeClock() (*fakeClock, func(float64)) {
	c := &fakeClock{}
	return c, func(t float64) { c.now = sim.Time(t) }
}

func (c *fakeClock) Now() sim.Time { return c.now }

func (c *fakeClock) AfterFunc(d sim.Duration, fn func()) {
	c.armed = append(c.armed, fakeTimer{at: c.now.Add(max(d, 0)), fn: fn})
}

// fire runs, once each and in arming order, every recorded callback
// whose deadline is at or before now, the way the runtime timers of a
// WallClock would wake; later deadlines stay armed.
func (c *fakeClock) fire() {
	for i := 0; i < len(c.armed); {
		if t := c.armed[i]; !(c.now < t.at) {
			c.armed = slices.Delete(c.armed, i, i+1)
			t.fn()
			continue
		}
		i++
	}
}
