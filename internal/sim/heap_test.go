package sim

import "container/heap"

// heapQueue is the binary-heap scheduler: a container/heap ordered by the
// (time, sequence) total order. Push, pop, and remove are O(log n) in the
// standing event population; there is no auxiliary state to adapt, which
// makes it the simplest correct implementation. It is test-only: the
// reference oracle the calendar queue is differentially tested against.
type heapQueue struct {
	q eventQueue
}

func newHeapQueue() *heapQueue {
	return &heapQueue{q: make(eventQueue, 0, 64)}
}

// queues names each scheduler implementation for tests and benchmarks
// that run once per queue: the production calendar and the heap oracle.
var queues = []struct {
	name string
	new  func() scheduler
}{
	{"calendar", func() scheduler { return newCalQueue() }},
	{"heap", func() scheduler { return newHeapQueue() }},
}

func (h *heapQueue) push(ev *event) { heap.Push(&h.q, ev) }

func (h *heapQueue) popUntil(horizon Time) *event {
	if len(h.q) == 0 || h.q[0].at > horizon {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}

func (h *heapQueue) remove(ev *event) { heap.Remove(&h.q, ev.index) }

func (h *heapQueue) len() int { return len(h.q) }

// eventQueue implements heap.Interface ordered by (time, sequence).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	//lint:allow floateq total-order tie-break comparator; exact comparison is the point
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
