package core

import "testing"

// BenchmarkTableJudgeAndWeight measures the per-verdict trust-update and
// per-vote weight-lookup path: Judge recomputes the record's trust index,
// Weight reads it back.
func BenchmarkTableJudgeAndWeight(b *testing.B) {
	t := MustNewTable(Params{Lambda: 0.25, FaultRate: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		node := i % 64
		t.Judge(node, i%10 != 0) // ~10% faulty, like a correct node near f_r
		sink += t.Weight(node)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkTableWeight measures one vote-weight read among 100 judged
// members. Dense IDs 0…99 hit the sparse lookup's offset probe; every
// third ID (0, 3, …, 297) misses it and pays the capped bisection.
func BenchmarkTableWeight(b *testing.B) {
	for _, tc := range []struct {
		name   string
		stride int
	}{{"dense", 1}, {"gapped", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			t := MustNewTable(Params{Lambda: 0.25, FaultRate: 0.1})
			ids := make([]int, 100)
			for i := range ids {
				ids[i] = i * tc.stride
				t.Judge(ids[i], i%10 != 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += t.Weight(ids[i%len(ids)])
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkDecideBinary measures one §3.1 CTI vote over a 24/12 split.
func BenchmarkDecideBinary(b *testing.B) {
	t := MustNewTable(Params{Lambda: 0.1, FaultRate: 0.05})
	reporters := make([]int, 24)
	silent := make([]int, 12)
	for i := range reporters {
		reporters[i] = i
	}
	for i := range silent {
		silent[i] = 24 + i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := DecideBinary(t, reporters, silent)
		Apply(t, dec)
	}
}
