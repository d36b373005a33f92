package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleAndRun measures raw kernel throughput: schedule-then-
// dispatch cost per event with a queue that stays around 1000 entries.
func BenchmarkScheduleAndRun(b *testing.B) {
	k := New()
	const window = 1000
	for i := 0; i < window; i++ {
		k.After(Duration(i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(window, func() {})
		k.Step()
	}
}

// BenchmarkTimerStop measures cancellation cost.
func BenchmarkTimerStop(b *testing.B) {
	k := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := k.After(1e9, func() {})
		tm.Stop()
	}
}

// BenchmarkSchedulerChurn is the scheduler scale-up matrix: near-term
// ACK/backoff churn (64 schedules, 48 stops, 16 dispatches per op) over a
// standing population of long-horizon timers that never fires. At pop=0
// the churn runs alone, the reliable report path's timer pattern with
// nothing else queued. On the
// heap oracle every schedule sifts up past the standing population and
// every dispatch sifts back down; the calendar prices the same ops
// against one day bucket regardless of population. Run it to see the
// heap's O(log n) grow with population while the calendar stays flat —
// the measurement that made the calendar the kernel's only queue:
//
//	go test -run '^$' -bench 'SchedulerChurn|SkewedHorizon' ./internal/sim/
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, q := range queues {
		for _, pop := range []int{0, 1_000, 16_000, 128_000} {
			b.Run(fmt.Sprintf("%s/pop=%d", q.name, pop), func(b *testing.B) {
				k := &Kernel{sched: q.new()}
				for i := 0; i < pop; i++ {
					k.After(Duration(1e12+float64(i)), func() {})
				}
				b.ReportAllocs()
				b.ResetTimer()
				timers := make([]*Timer, 64)
				for i := 0; i < b.N; i++ {
					for j := 0; j < 64; j++ {
						timers[j] = k.After(Duration(1+j), func() {})
					}
					for j := 0; j < 48; j++ {
						timers[j].Stop()
					}
					for j := 0; j < 16; j++ {
						k.Step()
					}
				}
			})
		}
	}
}

// BenchmarkSkewedHorizon oscillates the population between empty and a
// bimodal near/far spread each op: the near half fires, the far half is
// cancelled. Every op forces the calendar's bucket-count growth, width
// re-estimation against skewed gaps, and shrink back down — the resize
// machinery is the measured cost.
func BenchmarkSkewedHorizon(b *testing.B) {
	k := New()
	b.ReportAllocs()
	b.ResetTimer()
	far := make([]*Timer, 0, 1024)
	for i := 0; i < b.N; i++ {
		far = far[:0]
		for j := 0; j < 1024; j++ {
			k.After(Duration(1+j), func() {})
			far = append(far, k.After(Duration(1e6+float64(j)), func() {}))
		}
		k.Run(k.Now().Add(1100))
		for _, tm := range far {
			tm.Stop()
		}
	}
}
