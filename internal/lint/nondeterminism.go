package lint

import (
	"go/ast"
	"strings"

	"github.com/tibfit/tibfit/internal/lint/analysis"
)

// wallClockFuncs are the time-package entry points that read or depend
// on the wall clock. Any of them inside a simulation package makes a
// run unreproducible (and time.Sleep additionally couples results to
// scheduler behavior).
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// globalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that draw from the shared process-wide source. They are
// unseeded (or racily shared) and therefore forbidden everywhere in the
// simulation; internal/rng wraps an explicit per-stream source instead.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true,
}

// nondetTimeExempt lists simulation packages allowed to touch the wall
// clock: internal/trace stamps emitted trace records with real time for
// operator convenience (the stamps are not simulation inputs);
// internal/engine hosts the real-time WallClock driver, which reads
// time.Now and arms runtime timers with time.AfterFunc (the batch path
// never routes through it — the sim kernel is its own Clock); and
// internal/serve measures request latency for the serving histograms.
var nondetTimeExempt = map[string]bool{
	ModulePath + "/internal/trace":  true,
	ModulePath + "/internal/engine": true,
	ModulePath + "/internal/serve":  true,
}

// nondetRandExempt lists simulation packages allowed to reference
// math/rand: internal/rng is the designated wrapper.
var nondetRandExempt = map[string]bool{
	ModulePath + "/internal/rng": true,
}

// Nondeterminism forbids wall-clock reads and global math/rand draws in
// simulation packages.
var Nondeterminism = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid time.Now/time.Sleep and global math/rand in internal simulation packages\n\n" +
		"Simulation results must be bit-identical across runs. Wall-clock reads and\n" +
		"draws from the process-wide rand source make them depend on when and where\n" +
		"the process runs. Use simulated time and internal/rng.Source streams.\n" +
		"Exempt: internal/trace (wall-clock stamps on trace records), internal/rng.",
	Run: runNondeterminism,
}

func runNondeterminism(pass *analysis.Pass) (interface{}, error) {
	pkg := pass.Pkg.Path()
	if !inSimulationScope(pkg) {
		return nil, nil
	}
	checkTime := !nondetTimeExempt[pkg]
	checkRand := !nondetRandExempt[pkg]
	if !checkTime && !checkRand {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch q := pkgQualifier(pass.TypesInfo, sel); {
			case q == "time" && checkTime && wallClockFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(),
					"time.%s depends on wall-clock time; simulation code must be reproducible — thread simulated time instead (see docs/DETERMINISM.md)",
					sel.Sel.Name)
			case strings.HasPrefix(q, "math/rand") && checkRand && globalRandFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the global math/rand source; use a named internal/rng.Source stream instead",
					q, sel.Sel.Name)
			}
			return true
		})
	}
	return nil, nil
}
