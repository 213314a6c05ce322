package tmark

// The solve-quality knob and the linearized fast tier. Quality selects
// how a query (or a whole run) trades accuracy for latency:
//
//	exact        — the plain fixed-point iteration; the reference answer.
//	accelerated  — the extrapolated power method (WithAcceleration):
//	               identical answers, vetted jump steps cut the committed
//	               iteration count.
//	fast         — the linearized single-solve tier (WithApproximate):
//	               z frozen at uniform, the tensor collapsed into one
//	               sparse matrix, ICA dropped. Approximate; see
//	               internal/accel.System for the bound.
//
// The fast tier shares one lazily built accel.System per model: the
// collapsed matrix has the tensor's stored-entry count, so building it
// costs one tensor sweep and is amortised across every fast query.

import (
	"context"
	"fmt"

	"tmark/internal/accel"
	"tmark/internal/sparse"
	"tmark/internal/vec"
)

// Quality names a solve tier. The zero value defers to the run's
// options (WithAcceleration / WithApproximate), so a ColumnQuery that
// never sets it behaves exactly as before the knob existed.
type Quality int

const (
	// QualityDefault inherits the tier from the run options.
	QualityDefault Quality = iota
	// QualityExact forces the plain fixed-point iteration.
	QualityExact
	// QualityAccelerated forces the extrapolated power method; answers
	// are exact (every committed iterate passes the plain run's probes).
	QualityAccelerated
	// QualityFast forces the linearized approximate tier.
	QualityFast
)

// ParseQuality maps the wire spelling of the quality knob to its tier.
// The empty string is QualityDefault; anything else unrecognised is an
// error — callers surface it as a 400, never a silent default.
func ParseQuality(s string) (Quality, error) {
	switch s {
	case "":
		return QualityDefault, nil
	case "exact":
		return QualityExact, nil
	case "accelerated":
		return QualityAccelerated, nil
	case "fast":
		return QualityFast, nil
	}
	return QualityDefault, fmt.Errorf("unknown quality %q (want exact, accelerated or fast)", s)
}

// String returns the wire spelling ("" for QualityDefault).
func (q Quality) String() string {
	switch q {
	case QualityExact:
		return "exact"
	case QualityAccelerated:
		return "accelerated"
	case QualityFast:
		return "fast"
	}
	return ""
}

// resolve folds the run options into a concrete tier.
func (q Quality) resolve(ro runOptions) Quality {
	if q != QualityDefault {
		return q
	}
	if ro.approximate {
		return QualityFast
	}
	if ro.accelerate {
		return QualityAccelerated
	}
	return QualityExact
}

// linearSystem returns the model's collapsed linear operator, building
// it on first use. The build freezes z at uniform — the relation
// distribution every solve starts from — and folds it through the
// tensor (tensor.CollapseZ), so it costs one pass over the stored
// entries plus one sparse assembly. Safe for concurrent callers.
func (m *Model) linearSystem() (*accel.System, error) {
	m.linOnce.Do(func() {
		zbar := vec.Uniform(m.graph.M())
		rows, cols, vals, dangle := m.o.CollapseZ(zbar)
		var w accel.Matvec
		if m.cfg.Beta() > 0 && m.w != nil {
			w = m.w
		}
		m.lin, m.linErr = accel.NewSystem(m.graph.N(), rows, cols, vals, dangle, w, m.cfg.Alpha, m.cfg.Beta())
	})
	return m.lin, m.linErr
}

// linScratch builds the parallel-matvec scratch of the fast tier, or
// nil for a serial run.
func (rs *runScratch) linScratch() *sparse.MulScratch {
	if rs.pool == nil {
		return nil
	}
	return sparse.NewMulScratch(rs.workers)
}

// solveFastColumn answers one query through the linearized tier: one
// Jacobi solve for x, then a single relation contraction for z. The
// per-query ICA reseed does not apply (the tier's system is built from
// the restart vector alone), which is part of the documented
// approximation.
func (m *Model) solveFastColumn(ctx context.Context, cs columnState, ms *sparse.MulScratch, rs *runScratch) ColumnResult {
	cr := ColumnResult{Seeds: cs.seeds, Restart: cs.l}
	if err := columnErr(ctx, cs.ctx); err != nil {
		cr.X, cr.Z = vec.Clone(cs.l), vec.Uniform(m.graph.M())
		cr.Stopped = err
		return cr
	}
	sys, err := m.linearSystem()
	if err != nil {
		cr.X, cr.Z = vec.Clone(cs.l), vec.Uniform(m.graph.M())
		cr.Stopped = err
		return cr
	}
	x, trace, rho := sys.Solve(rs.pool, ms, cs.l, nil, m.cfg.Epsilon, m.cfg.MaxIterations)
	z := vec.New(m.graph.M())
	m.r.Apply(x, z)
	vec.Normalize1(z)
	cr.X, cr.Z = x, z
	cr.Trace = trace
	cr.Iterations = len(trace)
	cr.Converged = rho < m.cfg.Epsilon
	return cr
}

// runApproximate is the fast tier of the multi-class Run: every class
// is one linear solve plus one relation contraction. Classes are
// independent here — the ICA cross-class coupling is dropped by design —
// so a cancelled context simply leaves the remaining classes at their
// seed state.
func (m *Model) runApproximate(ctx context.Context, res *Result, rs *runScratch) error {
	sys, err := m.linearSystem()
	if err != nil {
		return err
	}
	ms := rs.linScratch()
	progress := rs.opts.progress
	for c := 0; c < m.graph.Q(); c++ {
		l, seeds := m.seedVector(c)
		cr := ClassResult{Class: c, Seeds: seeds, Restart: l}
		if ctx.Err() != nil {
			cr.X, cr.Z = vec.Clone(l), vec.Uniform(m.graph.M())
			res.Classes[c] = cr
			continue
		}
		x, trace, rho := sys.Solve(rs.pool, ms, l, nil, m.cfg.Epsilon, m.cfg.MaxIterations)
		z := vec.New(m.graph.M())
		m.r.Apply(x, z)
		vec.Normalize1(z)
		cr.X, cr.Z = x, z
		cr.Trace = trace
		cr.Iterations = len(trace)
		cr.Converged = rho < m.cfg.Epsilon
		if progress != nil {
			for i, r := range trace {
				progress(c, i+1, r)
			}
		}
		res.Classes[c] = cr
	}
	return nil
}
