package experiment

import (
	"testing"

	"github.com/tibfit/tibfit/internal/trace"
)

// TestExp2ReportPathAllocs bounds experiment 2's allocations per report
// on its busiest report path: the MAC contention model, whose sender
// backoff schedules every report twice, and the concurrent circle
// protocol. Report records are recycled and timers are values, so a
// report in flight allocates nothing; what remains is per-event and
// per-round work plus the run's set-up, about 1.17 objects per report on
// this run (the MAC jitter streams share one slab). One closure per
// report (to back off, or to deliver) would put it above two, and one
// heap-built stream per event above 1.25.
func TestExp2ReportPathAllocs(t *testing.T) {
	cfg := DefaultExp2()
	cfg.Events = 200
	cfg.Concurrent = true
	cfg.MACCollisionWindow = 0.002
	var tr *trace.Trace
	allocs := testing.AllocsPerRun(1, func() {
		tr = trace.New()
		cfg.Trace = tr
		if _, err := runExp2Once(cfg, 1); err != nil {
			t.Fatal(err)
		}
	})
	reports := tr.Count(trace.KindReportSent)
	t.Logf("%d reports, %.0f allocations", reports, allocs)
	if reports < 1000 {
		t.Fatalf("only %d reports sent; the bound needs a busier run", reports)
	}
	if allocs >= 1.25*float64(reports) {
		t.Fatalf("exp2 allocates %.0f objects for %d reports, want fewer than 1.25 per report", allocs, reports)
	}
}
