package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The golden figures pin the default scheme's outputs byte-for-byte: the
// committed CSVs were captured before the decision-engine refactor, so any
// drift in the tibfit/baseline pipeline — windowing, feedback ordering,
// trust arithmetic, legend strings — fails here. Regenerate only for an
// intentional behaviour change:
//
//	go run ./cmd/tibfit-figures -out /tmp/g -runs 2 -events 40 -seed 5 \
//	    -only figure2,figure8,ext-resilience,ext-byzantine-resilience
//	cp /tmp/g/<id>.csv internal/experiment/testdata/golden-<id>.csv
//
// The two chaos-campaign goldens (ext-resilience,
// ext-byzantine-resilience) pin the network assembly end to end: node
// population and stream names, grid placement, chaos plans, failover,
// quarantine and the detection match.
//
// Each golden is checked at several -parallel worker counts. The CSVs
// were captured on the binary-heap event queue with one worker; the
// kernel now runs only the calendar queue, and the differential tests in
// internal/sim tie the calendar's dispatch order to that heap, now kept
// as their test oracle. The calendar and the parallel sweep reproducing
// the heap-era bytes is the end-to-end proof of the (time, seq) dispatch
// contract — routed through the aggregator's Clock seam
// (internal/engine), so this is also the byte-identity gate for the
// batch path. The subtest names keep the queue they run on.
func TestGoldenFigures(t *testing.T) {
	parallels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		id     string
		golden string
	}{
		{"figure2", "golden-figure2.csv"},
		{"figure8", "golden-figure8.csv"},
		{"ext-resilience", "golden-ext-resilience.csv"},
		{"ext-byzantine-resilience", "golden-ext-byzantine-resilience.csv"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallels {
			t.Run(fmt.Sprintf("%s/calendar/parallel-%d", tc.id, par), func(t *testing.T) {
				opts := FigureOptions{Runs: 2, Events: 40, Seed: 5, Parallel: par}
				fig, err := Generate(tc.id, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := fig.CSV(); got != string(want) {
					t.Errorf("%s (parallel %d) drifted from the pre-refactor golden output:\ngot:\n%s\nwant:\n%s",
						tc.id, par, got, want)
				}
			})
		}
	}
}
