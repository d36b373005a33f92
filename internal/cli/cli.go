// Package cli holds the flag plumbing shared by the tibfit command-line
// tools. Every tool that picks a decision scheme (tibfit-sim, tibfit-net,
// tibfit-figures) installs the same -scheme/-lambda/-fr trio through
// SchemeFlags, so the flags parse, validate, and "did you mean"
// identically everywhere.
package cli

import (
	"flag"
	"strings"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
)

// SchemeFlags carries the decision-scheme selection shared by the cmd
// tools. Zero values for Lambda/FaultRate mean "keep the experiment
// default".
type SchemeFlags struct {
	// Scheme is the -scheme value: any name or alias in the decision
	// registry.
	Scheme string
	// Lambda is the -lambda override for the trust decay constant λ
	// (0 keeps the per-experiment default).
	Lambda float64
	// FaultRate is the -fr override for the tolerated natural error rate
	// f_r (0 keeps the per-experiment default).
	FaultRate float64
}

// Register installs -scheme, -lambda, and -fr on the flag set with the
// given default scheme name.
func (s *SchemeFlags) Register(fs *flag.FlagSet, defaultScheme string) {
	fs.StringVar(&s.Scheme, "scheme", defaultScheme,
		"decision scheme: "+strings.Join(decision.Names(), ", ")+" (alias: baseline)")
	fs.Float64Var(&s.Lambda, "lambda", 0,
		"trust decay constant λ (0 = experiment default)")
	fs.Float64Var(&s.FaultRate, "fr", 0,
		"tolerated natural error rate f_r (0 = experiment default)")
}

// Resolve validates the parsed -scheme value against the registry,
// returning its canonical name. Unknown names come back as the registry's
// "did you mean" error. An empty value resolves to itself, meaning "keep
// the per-experiment default".
func (s *SchemeFlags) Resolve() (string, error) {
	if s.Scheme == "" {
		return "", nil
	}
	return decision.Resolve(s.Scheme)
}

// ApplyLambda overwrites lam when -lambda was set.
func (s *SchemeFlags) ApplyLambda(lam *float64) {
	if s.Lambda > 0 {
		*lam = s.Lambda
	}
}

// ApplyFaultRate overwrites fr when -fr was set.
func (s *SchemeFlags) ApplyFaultRate(fr *float64) {
	if s.FaultRate > 0 {
		*fr = s.FaultRate
	}
}

// ApplyTrust overlays the -lambda and -fr overrides onto an experiment's
// default trust parameters, leaving zero-valued flags alone.
func (s *SchemeFlags) ApplyTrust(p core.Params) core.Params {
	if s.Lambda > 0 {
		p.Lambda = s.Lambda
	}
	if s.FaultRate > 0 {
		p.FaultRate = s.FaultRate
	}
	return p
}
