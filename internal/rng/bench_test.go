package rng

import "testing"

// BenchmarkNew measures building one stream: the per-node set-up cost of
// a field campaign.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = New(int64(i))
	}
}

// BenchmarkSplitDraw16 measures a node's typical use of its stream: one
// named split and 16 draws, all served before the register is built.
func BenchmarkSplitDraw16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Split(int64(i), "node")
		for range 16 {
			sinkInt = s.Int63()
		}
	}
}

// BenchmarkDrawMaterialized measures one draw from a stream whose
// register has been built: the steady-state lagged Fibonacci step.
func BenchmarkDrawMaterialized(b *testing.B) {
	s := New(1)
	for range rngTap + 1 {
		s.Int63()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = s.Int63()
	}
}
