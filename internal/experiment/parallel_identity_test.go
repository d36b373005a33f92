package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// TestFiguresByteIdenticalAcrossWorkerCounts is the campaign-parallelism
// regression gate: for every registered figure, running the campaign
// sequentially (Parallel: 1) and on a wide pool must render to exactly
// the same bytes. The pool merges cell results in index order, so the
// worker count may never be observable in the output.
func TestFiguresByteIdenticalAcrossWorkerCounts(t *testing.T) {
	wide := runtime.GOMAXPROCS(0)
	if wide < 4 {
		wide = 4 // oversubscribe on small machines so the pool path still runs
	}
	for _, id := range FigureIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opts := FigureOptions{Runs: 2, Events: 24, Seed: 17}

			opts.Parallel = 1
			seq, err := Generate(id, opts)
			if err != nil {
				t.Fatalf("sequential %s: %v", id, err)
			}
			opts.Parallel = wide
			par, err := Generate(id, opts)
			if err != nil {
				t.Fatalf("parallel(%d) %s: %v", wide, id, err)
			}

			a, b := serializeFigure(seq), serializeFigure(par)
			if a != b {
				t.Fatalf("%s: -parallel 1 and -parallel %d rendered different bytes\nseq:\n%s\npar:\n%s",
					id, wide, a, b)
			}
		})
	}
}

// TestSweepErrorPropagatesFromWorkers checks that a failure inside a
// pooled campaign cell surfaces as an error from the campaign call, and
// that the reported error is the lowest-index failure regardless of
// worker count (deterministic error reporting).
func TestSweepErrorPropagatesFromWorkers(t *testing.T) {
	base := DefaultExp1()
	base.Runs = 1
	base.Events = 10
	// faulty=3 and faulty=5 both fail Exp1Config validation; the sweep
	// must report the first value in sweep order.
	values := []float64{3, 5}
	for _, workers := range []int{1, 4} {
		_, err := SweepExp1N("faulty", values, base, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected validation error, got nil", workers)
		}
		if !strings.Contains(err.Error(), "faulty=3") {
			t.Fatalf("workers=%d: expected lowest-index error (faulty=3), got %v", workers, err)
		}
	}
}
