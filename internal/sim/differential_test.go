package sim

import (
	"fmt"
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// schedOp is one step of a differential scenario, generated once and
// replayed identically into a kernel per scheduler.
type schedOp struct {
	kind int // 0 schedule-after, 1 schedule-at-now (FIFO burst), 2 stop, 3 run-until, 4 step, 5 run-all
	f    float64
	idx  int
}

// genOps draws a random but deterministic op sequence. Delay draws mix
// the regimes the calendar queue has to survive: dense same-instant
// bursts, short uniform spacing, and far-future stragglers.
func genOps(seed int64, n int) []schedOp {
	src := rng.New(seed)
	ops := make([]schedOp, n)
	for i := range ops {
		op := schedOp{kind: src.Intn(6), idx: src.Intn(64)}
		switch src.Intn(4) {
		case 0:
			op.f = 0 // same-instant
		case 1:
			op.f = src.Uniform(0, 10)
		case 2:
			op.f = src.Uniform(0, 1000)
		case 3:
			op.f = src.Uniform(1e6, 1e9) // far-future straggler
		}
		ops[i] = op
	}
	return ops
}

// replay drives one kernel through the op list, recording every dispatch
// (by schedule serial) and a state fingerprint after every op.
func replay(k *Kernel, ops []schedOp) (dispatch []uint64, states []string) {
	var timers []Timer
	serial := uint64(0)
	for _, op := range ops {
		switch op.kind {
		case 0, 1:
			d := Duration(op.f)
			if op.kind == 1 {
				d = 0
			}
			id := serial
			serial++
			timers = append(timers, k.After(d, func() { dispatch = append(dispatch, id) }))
		case 2:
			if len(timers) > 0 {
				timers[op.idx%len(timers)].Stop()
			}
		case 3:
			k.Run(k.Now().Add(Duration(op.f)))
		case 4:
			k.Step()
		case 5:
			if op.idx%8 == 0 { // occasionally drain everything
				k.RunAll()
			}
		}
		states = append(states, fmt.Sprintf("now=%v pending=%d fired=%d", k.Now(), k.Pending(), k.Fired()))
	}
	k.RunAll()
	return dispatch, states
}

// TestSchedulerDifferential is the kernel's determinism harness: seeded
// random schedule/stop/run-until/step sequences must produce the
// identical dispatch order and identical Now/Pending/Fired at every step
// under the calendar queue and the heap oracle (heap_test.go). This is
// the test that pins the (at, seq) total order as a scheduler contract
// rather than a heap accident.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genOps(seed, 3000)
			heapDispatch, heapStates := replay(&Kernel{sched: newHeapQueue()}, ops)
			calDispatch, calStates := replay(New(), ops)

			if len(heapDispatch) != len(calDispatch) {
				t.Fatalf("dispatch count diverged: heap=%d calendar=%d",
					len(heapDispatch), len(calDispatch))
			}
			for i := range heapDispatch {
				if heapDispatch[i] != calDispatch[i] {
					t.Fatalf("dispatch %d diverged: heap fired timer %d, calendar fired timer %d",
						i, heapDispatch[i], calDispatch[i])
				}
			}
			for i := range heapStates {
				if heapStates[i] != calStates[i] {
					t.Fatalf("state after op %d diverged:\nheap:     %s\ncalendar: %s",
						i, heapStates[i], calStates[i])
				}
			}
		})
	}
}

// TestSchedulerDifferentialNestedScheduling covers handlers that schedule
// more work mid-dispatch (the dominant pattern in the protocol code:
// retries, heartbeats, report windows) under the calendar queue and the
// heap oracle.
func TestSchedulerDifferentialNestedScheduling(t *testing.T) {
	run := func(k *Kernel) []float64 {
		src := rng.New(99)
		var fired []float64
		var spawn func(depth int) Handler
		spawn = func(depth int) Handler {
			return func() {
				fired = append(fired, float64(k.Now()))
				if depth < 6 {
					n := src.Intn(3)
					for i := 0; i < n; i++ {
						k.After(Duration(src.Uniform(0, 50)), spawn(depth+1))
					}
				}
			}
		}
		for i := 0; i < 40; i++ {
			k.After(Duration(src.Uniform(0, 200)), spawn(0))
		}
		k.RunAll()
		return fired
	}
	heapFired := run(&Kernel{sched: newHeapQueue()})
	calFired := run(New())
	if len(heapFired) != len(calFired) {
		t.Fatalf("fired count diverged: heap=%d calendar=%d", len(heapFired), len(calFired))
	}
	for i := range heapFired {
		//lint:allow floateq byte-identity check: both runs must produce the same bits
		if heapFired[i] != calFired[i] {
			t.Fatalf("dispatch time %d diverged: heap=%v calendar=%v", i, heapFired[i], calFired[i])
		}
	}
}
