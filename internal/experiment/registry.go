package experiment

import (
	"fmt"

	"github.com/tibfit/tibfit/internal/metrics"
)

// Generator regenerates one paper figure.
type Generator func(FigureOptions) (metrics.Figure, error)

// figureRegistry maps figure IDs to their generators.
var figureRegistry = map[string]Generator{
	"figure2":  Figure2,
	"figure3":  Figure3,
	"figure4":  Figure4,
	"figure5":  Figure5,
	"figure6":  Figure6,
	"figure7":  Figure7,
	"figure8":  Figure8,
	"figure9":  Figure9,
	"figure10": func(FigureOptions) (metrics.Figure, error) { return Figure10(), nil },
	"figure11": func(FigureOptions) (metrics.Figure, error) { return Figure11(), nil },
	"figure11-roots": func(FigureOptions) (metrics.Figure, error) {
		return Figure11Roots(), nil
	},
	"ext-reliability":          FigureReliability,
	"ext-collusion-guard":      FigureCollusionGuard,
	"ext-sweep-lambda":         FigureSweepLambda,
	"ext-resilience":           FigureResilience,
	"ext-byzantine-resilience": FigureByzantineResilience,
	"ext-scheme-comparison":    FigureSchemeComparison,
}

// FigureIDs returns the sorted IDs of every reproducible figure.
func FigureIDs() []string { return sortedKeys(figureRegistry) }

// Generate regenerates the figure with the given ID.
func Generate(id string, opts FigureOptions) (metrics.Figure, error) {
	gen, ok := figureRegistry[id]
	if !ok {
		return metrics.Figure{}, fmt.Errorf("experiment: unknown figure %q (known: %v)", id, FigureIDs())
	}
	return gen(opts)
}
