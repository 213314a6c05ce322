package tmark

// Fault tolerance: numerical-health guards, re-exported from
// internal/tmark.
//
// The solver always runs free numerical probes (simplex mass, finite
// residuals) and, on a corruption fault, re-runs the attempt once from
// its own start (cold, or the caller's warm start) with the assembly
// kernels demoted to the scalar reference (see WithScalarKernels). The
// kernels are deterministic and scalar ≡ AVX2 bitwise, so a re-run after
// a transient fault returns exactly the clean run's answer. WithGuards
// adds the stricter opt-in tier: mass-drift tolerance, stagnation and
// divergence detection. A run that still ends unhealthy reports
// ReasonNumericalFault or ReasonStagnated and lists its Faults.

import (
	itmark "tmark/internal/tmark"
)

// Fault is one numerical-health incident observed during a run.
type Fault = itmark.Fault

// GuardConfig tunes the opt-in numerical-health guards; see
// DefaultGuards.
type GuardConfig = itmark.GuardConfig

// Further reasons a run can end with (see Result.Reason).
const (
	ReasonNumericalFault = itmark.ReasonNumericalFault
	ReasonStagnated      = itmark.ReasonStagnated
)

// ErrNumericalFault marks a run stopped by a numerical-health guard.
var ErrNumericalFault = itmark.ErrNumericalFault

// ErrStagnated marks a run whose residual went flat before converging.
var ErrStagnated = itmark.ErrStagnated

// DefaultGuards returns the recommended opt-in guard thresholds.
func DefaultGuards() GuardConfig { return itmark.DefaultGuards() }

// WithGuards enables the opt-in numerical-health tier for one run.
func WithGuards(g GuardConfig) RunOption { return itmark.WithGuards(g) }

// WithScalarKernels(true) demotes the vectorised kernels to the scalar
// reference path for this run (the automatic numerical-fault retry
// does this itself).
func WithScalarKernels(on bool) RunOption { return itmark.WithScalarKernels(on) }
