package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/rng"
)

var area = geo.NewRect(100, 100)

func TestStatic(t *testing.T) {
	m := Static(geo.Point{X: 3, Y: 4})
	if m.At(0) != m.At(1e6) {
		t.Fatal("static model moved")
	}
}

func TestLinearStraightLine(t *testing.T) {
	m := Linear{Start: geo.Point{X: 10, Y: 10}, Vel: geo.Point{X: 1, Y: 2}, Area: area}
	p := m.At(5)
	if p != (geo.Point{X: 15, Y: 20}) {
		t.Fatalf("At(5) = %v", p)
	}
}

func TestLinearReflectsOffWalls(t *testing.T) {
	m := Linear{Start: geo.Point{X: 90, Y: 50}, Vel: geo.Point{X: 10, Y: 0}, Area: area}
	// After 1 unit it hits x=100; after 2 it should be back at 90.
	if p := m.At(2); math.Abs(p.X-90) > 1e-9 {
		t.Fatalf("At(2) = %v, want x=90", p)
	}
	// It must never leave the area, even over long horizons.
	for tm := 0.0; tm < 100; tm += 0.7 {
		if p := m.At(tm); !area.Contains(p) {
			t.Fatalf("left the area at t=%v: %v", tm, p)
		}
	}
}

func TestLinearDegenerateArea(t *testing.T) {
	m := Linear{Start: geo.Point{X: 5, Y: 5}, Vel: geo.Point{X: 1, Y: 1},
		Area: geo.Rect{Min: geo.Point{X: 5, Y: 5}, Max: geo.Point{X: 5, Y: 5}}}
	if p := m.At(10); p != (geo.Point{X: 5, Y: 5}) {
		t.Fatalf("degenerate area position = %v", p)
	}
}

func TestWaypointValidation(t *testing.T) {
	if _, err := NewWaypoint(area, geo.Point{}, 0, 1, rng.New(1)); err == nil {
		t.Fatal("accepted zero minSpeed")
	}
	if _, err := NewWaypoint(area, geo.Point{}, 2, 1, rng.New(1)); err == nil {
		t.Fatal("accepted max < min")
	}
	if _, err := NewWaypoint(area, geo.Point{}, 1, 2, nil); err == nil {
		t.Fatal("accepted nil rng")
	}
}

func TestWaypointStaysInArea(t *testing.T) {
	w, err := NewWaypoint(area, geo.Point{X: 50, Y: 50}, 1, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0.0; tm < 500; tm += 1.3 {
		if p := w.At(tm); !area.Contains(p) {
			t.Fatalf("left the area at t=%v: %v", tm, p)
		}
	}
	if w.Legs() < 5 {
		t.Fatalf("only %d legs after 500 time units", w.Legs())
	}
}

func TestWaypointDeterministicQueries(t *testing.T) {
	w, err := NewWaypoint(area, geo.Point{X: 50, Y: 50}, 1, 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Query far ahead first, then earlier times: answers must match a
	// fresh model queried in order.
	late := w.At(200)
	early := w.At(10)

	w2, _ := NewWaypoint(area, geo.Point{X: 50, Y: 50}, 1, 5, rng.New(3))
	if got := w2.At(10); got != early {
		t.Fatalf("out-of-order query changed t=10: %v vs %v", got, early)
	}
	if got := w2.At(200); got != late {
		t.Fatalf("out-of-order query changed t=200: %v vs %v", got, late)
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	w, err := NewWaypoint(area, geo.Point{X: 50, Y: 50}, 2, 4, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.25
	prev := w.At(0)
	for tm := dt; tm < 200; tm += dt {
		cur := w.At(tm)
		if v := prev.Dist(cur) / dt; v > 4+1e-6 {
			t.Fatalf("speed %v exceeds max 4 at t=%v", v, tm)
		}
		prev = cur
	}
}

func TestWaypointBeforeZero(t *testing.T) {
	w, _ := NewWaypoint(area, geo.Point{X: 7, Y: 9}, 1, 2, rng.New(5))
	if p := w.At(-5); p != (geo.Point{X: 7, Y: 9}) {
		t.Fatalf("At(-5) = %v", p)
	}
}

func TestReflectProperty(t *testing.T) {
	check := func(x, d float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 1e9)
		v := reflect(x, 10, 20)
		if v < 10-1e-9 || v > 20+1e-9 {
			return false
		}
		d = math.Abs(math.Mod(d, 5))
		return math.Abs(reflect(20+d, 10, 20)-reflect(20-d, 10, 20)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
