package engine

import (
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
)

// BenchmarkInstanceIngest measures the ReportMany hot path in steady
// state: one open window, 64-report batches against a 64-member tenant,
// with the window horizon far enough out that no expiry fires. This is
// the per-report cost the serve ingest histogram records, minus HTTP.
func BenchmarkInstanceIngest(b *testing.B) {
	inst, err := New(Config{
		Scheme:  decision.SchemeTIBFIT,
		Params:  decision.Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1}},
		Tout:    1e9,
		Members: members(64),
		Clock:   NewWallClock(time.Hour),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	batch := members(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := inst.ReportMany(batch); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkEngineWindow times one full online decision window on the
// sim-kernel clock: 18 of 25 members report, the window expires, the
// scheme arbitrates, the decision lands in the ring. Against
// aggregator.BenchmarkBinaryWindow/tibfit it prices the engine seam.
func BenchmarkEngineWindow(b *testing.B) {
	kernel := sim.New()
	inst, err := New(Config{
		Scheme:  decision.SchemeTIBFIT,
		Params:  decision.Params{Trust: core.Params{Lambda: 0.1, FaultRate: 0.05}},
		Tout:    1,
		Members: members(25),
		Clock:   kernel,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := members(18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := inst.ReportMany(batch); res.Err != nil {
			b.Fatal(res.Err)
		}
		kernel.RunAll()
	}
}

// BenchmarkSnapshotRoundtrip seals the trust namespace of a warmed
// instance and restores it into a second one: the GET /snapshot →
// PUT /snapshot migration path. Each op carries a fresh monotonic
// version, so the restore side always takes the accept path.
func BenchmarkSnapshotRoundtrip(b *testing.B) {
	kernel := sim.New()
	ids := members(64)
	params := decision.Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1}}
	src, err := New(Config{
		Scheme: decision.SchemeTIBFIT, Params: params, Tout: 1, Members: ids, Clock: kernel,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if res := src.ReportMany(ids[:48]); res.Err != nil {
			b.Fatal(res.Err)
		}
		kernel.RunAll()
	}
	dst, err := New(Config{
		Scheme: decision.SchemeTIBFIT, Params: params, Tout: 1, Members: ids, Clock: sim.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := src.SealedSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.RestoreSealed(blob); err != nil {
			b.Fatal(err)
		}
	}
}
