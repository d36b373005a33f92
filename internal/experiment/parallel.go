package experiment

import (
	"runtime"

	"github.com/tibfit/tibfit/internal/parallel"
)

// Replicates of one experiment are independent simulations with distinct
// seeds, so they parallelize perfectly. runReplicates runs once for each
// of max(runs, 1) replicates, replicate r seeded seed+r, fanned out over
// the available cores on the shared ordered work-pool (internal/parallel),
// and returns the results in replicate order, which keeps every
// aggregate bit-identical to a sequential execution. The lowest
// replicate's error wins; remaining workers still drain their queue (a
// simulation has no way to block).
//
// Campaign-level parallelism (figure cells, sweep points, resilience
// grid points) fans out one level up through the same pool; see
// FigureOptions.Parallel.
func runReplicates[T any](runs int, seed int64, once func(seed int64) (T, error)) ([]T, error) {
	return parallel.Map(max(runs, 1), runtime.GOMAXPROCS(0), func(r int) (T, error) {
		return once(seed + int64(r))
	})
}

// meanOf averages replicate results field by field over the float64
// fields that fields points into, summing in replicate order.
func meanOf[T any](results []T, fields func(*T) []*float64) T {
	var agg T
	sums := fields(&agg)
	for i := range results {
		for j, v := range fields(&results[i]) {
			*sums[j] += *v
		}
	}
	for _, s := range sums {
		*s /= float64(len(results))
	}
	return agg
}

// meanWindowed is the element-wise mean of the replicates' windowed
// accuracy series, as long as the first replicate's.
func meanWindowed[T any](results []T, windowed func(T) []float64) []float64 {
	mean := make([]float64, len(windowed(results[0])))
	for _, res := range results {
		for i, v := range windowed(res) {
			if i < len(mean) {
				mean[i] += v
			}
		}
	}
	for i := range mean {
		mean[i] /= float64(len(results))
	}
	return mean
}
