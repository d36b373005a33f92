// Package hotalloc is a lint fixture for the hotalloc analyzer:
// //hot:path annotation, intra-package propagation, //hot:init
// exemption, cross-package handler registration via facts, and every
// allocation construct the rule flags.
package hotalloc

import (
	"fmt"

	dep "github.com/tibfit/tibfit/internal/linttestdata/hotallocdep"
)

type payload struct {
	id int
}

type table struct {
	cache map[int]float64
	buf   []int
	set   scratchSet
}

type scratchSet struct {
	ids []int
}

// dispatch is the seeded hot function: every per-event allocation kind
// in one body.
//
//hot:path
func (t *table) dispatch(id int) {
	p := &payload{id: id} // want `&hotalloc\.payload composite literal escapes to the heap in hot path dispatch`
	_ = p
	s := []int{1, 2, 3} // want `slice literal allocates in hot path dispatch`
	_ = s
	m := map[int]int{} // want `map literal allocates in hot path dispatch`
	_ = m
	c := make(map[int]float64) // want `make\(map\) allocates in hot path dispatch`
	_ = c
	ch := make(chan int) // want `make\(chan\) allocates in hot path dispatch`
	_ = ch
	var grow []int
	grow = append(grow, id) // want `append to grow may reallocate per event in hot path dispatch`
	_ = grow
	sub := grow[:0]
	sub = append(sub, id) // want `append to sub may reallocate per event in hot path dispatch`
	_ = sub
	var own scratchSet
	alias := &own
	alias.ids = append(alias.ids, id) // want `append to alias may reallocate per event in hot path dispatch`

	fmt.Println(id) // want `fmt\.Println allocates and boxes its arguments in hot path dispatch`
	t.helper(id)
	t.coldStart()
}

// helper is hot by propagation: dispatch calls it.
func (t *table) helper(id int) {
	t.cache[id] = box(id) // want `arguments box into \.\.\.interface\{\} in hot path helper \(called from hot dispatch\)`
}

// coldStart is lazily-called one-time setup; //hot:init stops
// propagation, so its allocations are fine.
//
//hot:init
func (t *table) coldStart() {
	if t.cache == nil {
		t.cache = make(map[int]float64)
	}
}

// box models a logging-style sink with a variadic interface signature.
func box(args ...interface{}) float64 {
	return float64(len(args))
}

// scratch shows the sanctioned idioms: capacity-sized locals and
// field/parameter appends are exempt, and the escape hatch works.
//
//hot:path
func (t *table) scratch(in []int, id int) []int {
	sized := make([]int, 0, 8)
	sized = append(sized, id)
	in = append(in, id)
	t.buf = append(t.buf, id)
	reused := t.buf[:0]
	reused = append(reused, id)
	t.buf = reused
	grown := append(in[:0], id)
	grown = append(grown, id)
	_ = grown
	set := &t.set
	set.ids = append(set.ids, id)
	ids := set.ids[:0]
	ids = append(ids, id)
	set.ids = ids
	//lint:allow hotalloc deliberate per-call handle, pinned by a bench
	h := &payload{id: id}
	_ = h
	return sized
}

// schedule registers handlers with the dep kernel; the closure body is
// hot purely via the imported registersHandler fact.
func schedule(k *dep.Kernel, id int) {
	k.After(1, func() {
		evs := map[int]int{id: id} // want `map literal allocates in hot path handler literal`
		_ = evs
	})
	k.After(2, namedHandler)
}

// namedHandler becomes hot by being registered as a handler.
func namedHandler() {
	fmt.Print("fired") // want `fmt\.Print allocates and boxes its arguments in hot path namedHandler`
}

// cold is never hot: the same constructs draw no findings.
func cold(id int) *payload {
	m := map[int]int{}
	_ = m
	fmt.Println(id)
	return &payload{id: id}
}

// window models an aggregator whose expiry callback is one of its own
// methods.
type window struct {
	expire func()
}

func (w *window) openWindow(tout int, expire func()) {
	_, _ = tout, expire
}

func (w *window) closeWindow() {}

// newWindow binds the expiry once, outside any hot path.
func newWindow() *window {
	w := &window{}
	w.expire = w.closeWindow
	return w
}

// deliver passes the method value per call: each pass allocates a bound
// closure. The pre-bound field and a plain call do not.
//
//hot:path
func (w *window) deliver(tout int) {
	w.openWindow(tout, w.closeWindow) // want `method value w\.closeWindow allocates a bound closure in hot path deliver`
	w.openWindow(tout, w.expire)
	w.closeWindow()
}
