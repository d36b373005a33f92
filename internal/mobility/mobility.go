// Package mobility implements position-over-time models for mobile
// networks and mobile targets.
//
// The paper's system model allows motion explicitly: "The network could
// be stationary or mobile, as long as it is possible for the CH to
// estimate the positions of its cluster nodes during decision making"
// (§2), and the location-determination extension is motivated by "a
// network ... attempting to track a mobile sensor node that is
// transmitting a signal as it moves throughout the network" (§3.2). This
// package provides the trajectory models: static, linear with wall
// bounce, and random waypoint.
package mobility

import (
	"fmt"
	"math"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
)

// Model yields a position for any virtual time. Implementations must be
// deterministic: the same model queried at the same time always returns
// the same position (the simulator may query out of order).
type Model interface {
	At(t float64) geo.Point
}

// Static is a model that never moves.
type Static geo.Point

// At implements Model.
func (s Static) At(float64) geo.Point { return geo.Point(s) }

// Linear moves at a constant velocity from a start point, reflecting off
// the walls of a bounding area so trajectories stay in-field forever.
type Linear struct {
	Start geo.Point
	// Vel is the velocity in units per virtual time unit.
	Vel  geo.Point
	Area geo.Rect
}

// At implements Model by folding the unbounded linear position back into
// the area with mirror reflections.
func (l Linear) At(t float64) geo.Point {
	return geo.Point{
		X: reflect(l.Start.X+l.Vel.X*t, l.Area.Min.X, l.Area.Max.X),
		Y: reflect(l.Start.Y+l.Vel.Y*t, l.Area.Min.Y, l.Area.Max.Y),
	}
}

// reflect maps an unbounded coordinate into [lo, hi] as if the particle
// bounced elastically off the walls.
func reflect(x, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return lo
	}
	// Position within a double-width period [0, 2w): first half moves
	// forward, second half moves back.
	p := math.Mod(x-lo, 2*w)
	if p < 0 {
		p += 2 * w
	}
	if p > w {
		p = 2*w - p
	}
	return lo + p
}

// Waypoint is the random-waypoint model: pick a uniform destination and a
// speed, travel in a straight line, repeat. Legs are generated lazily and
// cached so queries at any time are deterministic.
type Waypoint struct {
	area     geo.Rect
	minSpeed float64
	maxSpeed float64
	src      *rng.Source

	legs []leg // legs[i].from departs at legs[i].start
}

type leg struct {
	start float64 // departure time
	end   float64 // arrival time
	from  geo.Point
	to    geo.Point
}

// NewWaypoint returns a random-waypoint model starting at start at time
// zero. Speeds are drawn uniformly from [minSpeed, maxSpeed].
func NewWaypoint(area geo.Rect, start geo.Point, minSpeed, maxSpeed float64, src *rng.Source) (*Waypoint, error) {
	if minSpeed <= 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("mobility: need 0 < minSpeed <= maxSpeed, got %v, %v", minSpeed, maxSpeed)
	}
	if src == nil {
		return nil, fmt.Errorf("mobility: nil rng source")
	}
	w := &Waypoint{area: area, minSpeed: minSpeed, maxSpeed: maxSpeed, src: src}
	w.legs = []leg{{start: 0, end: 0, from: area.Clamp(start), to: area.Clamp(start)}}
	w.extend() // first real leg
	return w, nil
}

// extend appends one more leg after the current last one.
func (w *Waypoint) extend() {
	last := w.legs[len(w.legs)-1]
	dest := geo.Point{
		X: w.src.Uniform(w.area.Min.X, w.area.Max.X),
		Y: w.src.Uniform(w.area.Min.Y, w.area.Max.Y),
	}
	speed := w.src.Uniform(w.minSpeed, w.maxSpeed)
	dist := last.to.Dist(dest)
	dur := dist / speed
	if dur <= 0 {
		dur = 1e-9
	}
	w.legs = append(w.legs, leg{
		start: last.end,
		end:   last.end + dur,
		from:  last.to,
		to:    dest,
	})
}

// At implements Model. Querying a time before zero returns the start.
func (w *Waypoint) At(t float64) geo.Point {
	if t <= 0 {
		return w.legs[0].from
	}
	for w.legs[len(w.legs)-1].end < t {
		w.extend()
	}
	// Binary search would be asymptotically nicer; trajectories in the
	// experiments have tens of legs, so a scan is simpler and fine.
	for _, l := range w.legs {
		if t <= l.end {
			//lint:allow floateq zero-duration-leg guard against dividing by an exact zero below
			if l.end == l.start {
				return l.to
			}
			frac := (t - l.start) / (l.end - l.start)
			return geo.Point{
				X: l.from.X + (l.to.X-l.from.X)*frac,
				Y: l.from.Y + (l.to.Y-l.from.Y)*frac,
			}
		}
	}
	return w.legs[len(w.legs)-1].to
}

// Legs returns how many trajectory legs have been generated so far.
func (w *Waypoint) Legs() int { return len(w.legs) }
