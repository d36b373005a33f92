package decision

import (
	"github.com/tibfit/tibfit/internal/core"
)

func init() {
	Register(SchemeTIBFIT, "TIBFIT", func(p Params) (Scheme, error) {
		t, err := core.NewTable(p.Trust)
		if err != nil {
			return nil, err
		}
		return &tableScheme{Table: t, name: SchemeTIBFIT}, nil
	})
	Register(SchemeLinear, "Linear", func(p Params) (Scheme, error) {
		params := p.Trust
		params.Linear = true
		t, err := core.NewTable(params)
		if err != nil {
			return nil, err
		}
		return &tableScheme{Table: t, name: SchemeLinear}, nil
	})
	Register(SchemeMajority, "Majority", func(Params) (Scheme, error) {
		return majorityScheme{name: SchemeMajority}, nil
	})
	RegisterAlias(SchemeBaseline, "Baseline", SchemeMajority)
}

// tableScheme is the canonical TIBFIT scheme (§3): a core.Table carries
// the exponential trust state, core.DecideBinary arbitrates by CTI. The
// table is embedded, not wrapped, so the hot Weight/Judge paths (and the
// trust index each record carries) are exactly the pre-registry code.
// The "linear" registration is the same engine with the §3 linear-penalty
// ablation forced on.
type tableScheme struct {
	*core.Table
	name string
}

var (
	_ Scheme   = (*tableScheme)(nil)
	_ Stateful = (*tableScheme)(nil)
)

// Name identifies the registered scheme ("tibfit" or "linear").
func (s *tableScheme) Name() string { return s.name }

// Arbitrate implements Scheme with the §3.1 CTI face-off.
func (s *tableScheme) Arbitrate(reporters, silent []int) core.BinaryDecision {
	return core.DecideBinary(s.Table, reporters, silent)
}

// majorityScheme is the stateless majority-voting baseline the paper
// compares against: every vote weighs 1, nothing is learned, nobody is
// isolated. Registered as "majority", with "baseline" (the paper's
// figure-legend name) as an alias.
type majorityScheme struct {
	core.Baseline
	name string
}

var _ Scheme = majorityScheme{}

// Name identifies the registered scheme.
func (s majorityScheme) Name() string { return s.name }

// TI implements Scheme: a stateless scheme trusts everyone fully.
func (majorityScheme) TI(int) float64 { return 1 }

// IsolatedNodes implements Scheme: nobody is ever isolated.
func (majorityScheme) IsolatedNodes() []int { return nil }

// Arbitrate implements Scheme: with unit weights the CTI face-off
// degenerates to a head count.
func (s majorityScheme) Arbitrate(reporters, silent []int) core.BinaryDecision {
	return core.DecideBinary(s.Baseline, reporters, silent)
}
