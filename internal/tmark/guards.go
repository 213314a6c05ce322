package tmark

// Numerical-health guards for the iterative solve. The power iteration
// is numerically benign in exact arithmetic — every iterate lives on
// the simplex — so a NaN, an exploding residual or a vanishing column
// mass is always evidence of a fault: corrupt input that slipped past
// ingest validation, a misbehaving vector unit, or (in the chaos suite)
// a deliberate injection. Two tiers of probes watch for this:
//
// Always on (every path, free): the per-column simplex projection
// already computes the column mass, so a zero/NaN/Inf mass is detected
// at no extra cost, and the residual ρ is checked for finiteness as it
// is computed. Both fire BEFORE the iterate is committed (the engine
// copies xn→x only after the checks pass), so at detection time the
// solver still holds the last healthy iteration — exactly the state a
// stopped Result reports.
//
// Opt-in (WithGuards): pre-normalisation mass drift, residual-series
// stagnation, and divergence. These cost a few comparisons per column
// per iteration and are off by default because they change when a
// marginal run stops (a stagnating run that used to grind to
// MaxIterations now stops early with ReasonStagnated).
//
// Recovery: a corruption fault in a class run triggers one automatic
// re-run of the whole attempt from its own start (cold, or the caller's
// warm start) with the AVX2 kernels demoted to the scalar reference
// bodies (WithScalarKernels) — if the fault came from the vectorised
// path, the re-run completes on the reference path, bitwise equal to a
// clean run; a deterministic fault reproduces and the run stops with
// ReasonNumericalFault and the re-run's last healthy state. Stagnation and
// divergence are properties of the data, not the hardware, so they stop
// the run without a retry. In column solves (SolveColumns) faults are
// isolated per column instead: the faulting column retires
// with ColumnResult.Stopped = ErrNumericalFault and its last healthy
// state, and the other columns continue unharmed.

import (
	"errors"
	"fmt"
	"math"
)

// ErrNumericalFault reports a corrupted iterate: non-finite values or a
// collapsed column mass, detected before the iterate was committed.
var ErrNumericalFault = errors.New("tmark: numerical fault detected")

// ErrStagnated reports a residual series that stopped improving before
// reaching Epsilon (see GuardConfig.Stagnation).
var ErrStagnated = errors.New("tmark: residual stagnated before convergence")

// Fault kinds, recorded in Fault.Kind.
const (
	faultNonFinite  = "nonfinite"  // NaN/Inf mass or residual
	faultMassDrift  = "mass-drift" // pre-normalisation mass left the simplex
	faultDivergence = "divergence" // residual grew past DivergenceFactor × best
	faultStagnation = "stagnation" // residual series flat for a full window
)

// Fault is one detected numerical-health event, reported on
// Result.Faults. Class indexes the faulting class (or query column);
// Iter is the iteration at which the probe fired — the iterate of that
// iteration was discarded, so the surviving state is iteration Iter−1.
type Fault struct {
	Class int
	Iter  int
	Kind  string
}

func (f Fault) String() string {
	return fmt.Sprintf("class %d iteration %d: %s", f.Class, f.Iter, f.Kind)
}

// GuardConfig tunes the opt-in numerical-health probes; see WithGuards.
// A zero field disables its probe, so the zero value adds nothing to
// the always-on checks.
type GuardConfig struct {
	// MassTol faults an iterate whose pre-normalisation column mass
	// drifts further than this from 1. The update is a convex
	// combination of distributions, so the mass entering the simplex
	// projection is 1 up to accumulated rounding; a large drift means
	// the floats are no longer trustworthy.
	MassTol float64
	// Stagnation is the window length (in iterations) of the
	// flat-residual probe: when the last Stagnation residuals of a
	// column span a relative range below StagnationTol without reaching
	// Epsilon, the run stops with ReasonStagnated. 0 disables.
	Stagnation int
	// StagnationTol is the relative flatness threshold of the
	// stagnation window; used only when Stagnation > 0.
	StagnationTol float64
	// DivergenceFactor faults a column whose residual exceeds this
	// multiple of the best residual it has seen. The iteration map is a
	// contraction in the typical regime, so a residual growing orders
	// of magnitude past its best is numerically out of control. 0
	// disables.
	DivergenceFactor float64
	// NoRetry disables the automatic demoted retry after a corruption
	// fault; the run then stops at the first fault.
	NoRetry bool
}

// DefaultGuards returns the recommended probe thresholds: mass drift
// beyond 1e-6, a 20-iteration flat window at 1e-3 relative range, and
// divergence at 1000× the best residual.
func DefaultGuards() GuardConfig {
	return GuardConfig{
		MassTol:          1e-6,
		Stagnation:       20,
		StagnationTol:    1e-3,
		DivergenceFactor: 1e3,
	}
}

// WithGuards enables the opt-in numerical-health probes for this run.
// The always-on corruption checks (non-finite mass/residual) run
// regardless; see the package comments above for what each probe adds.
func WithGuards(g GuardConfig) RunOption {
	return func(o *runOptions) { o.guards = &g }
}

// runFault is the internal verdict of a guarded loop: the public fault
// record and whether a demoted retry could help (corruption faults only
// — stagnation and divergence reproduce deterministically).
type runFault struct {
	fault     Fault
	retryable bool
}

// reason maps the fault to the Reason/error pair it stops the run with.
func (f *runFault) reason() (Reason, error) {
	if f.fault.Kind == faultStagnation {
		return ReasonStagnated, ErrStagnated
	}
	return ReasonNumericalFault, ErrNumericalFault
}

// badMass reports whether a simplex projection failed outright (ok
// false: zero/NaN/Inf mass) or drifted past the optional tolerance.
func badMass(mass float64, ok bool, g *GuardConfig) (string, bool) {
	if !ok {
		return faultNonFinite, true
	}
	if g != nil && g.MassTol > 0 && math.Abs(mass-1) > g.MassTol {
		return faultMassDrift, true
	}
	return "", false
}

// nonFinite reports a NaN or Inf residual.
func nonFinite(rho float64) bool {
	return math.IsNaN(rho) || math.IsInf(rho, 0)
}

// stagnated reports whether the tail of a residual trace has been flat
// for a full window: the last g.Stagnation residuals span a relative
// range below g.StagnationTol. Called only for columns that have not
// converged, so a flat tail means the iteration is stuck, not done.
func stagnated(trace []float64, g *GuardConfig) bool {
	if g == nil || g.Stagnation <= 0 || len(trace) < g.Stagnation {
		return false
	}
	tail := trace[len(trace)-g.Stagnation:]
	lo, hi := tail[0], tail[0]
	for _, r := range tail[1:] {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return hi-lo <= g.StagnationTol*hi
}

// diverged reports whether a residual has grown past the divergence
// factor times the best residual the column has seen.
func diverged(rho, best float64, g *GuardConfig) bool {
	return g != nil && g.DivergenceFactor > 0 && best > 0 && rho > g.DivergenceFactor*best
}
