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
// costs one tensor sweep and is amortised across every fast query. The
// fast columns of one call — a SolveColumns batch's fast queries, or
// every class of a WithApproximate run — sweep it together as one
// blocked solve (solveFast) on the same blocked CSR kernels the engine
// runs.

import (
	"context"
	"fmt"

	"tmark/internal/accel"
	"tmark/internal/obs"
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
		m.lin, m.linErr = accel.NewSystem(m.graph.N(), rows, cols, vals, dangle, m.cfg.Alpha, m.cfg.Beta())
	})
	return m.lin, m.linErr
}

// solveFast answers columns through the linearized tier: Jacobi sweeps
// of the collapsed system x = rel·(P·x + dangling) + β·W·x + α·l from
// the uniform start, all columns as one block on the blocked CSR
// kernels, then one relation contraction for z. The block is laid out at
// stride vec.Stride(b) for its b active columns, as the engine's is,
// with +0 in the lanes past them, and re-strided as columns retire. A
// column whose step ρ (the L1 distance between consecutive sweeps) drops
// below ε retires with that sweep; one that reaches MaxIterations keeps
// its last. Every kernel computes each column's floats in single-vector
// order, so an answer depends on neither the block nor the worker count.
// The contexts are checked once, before the block: a column whose own
// context, or the run's, is done keeps (l, uniform z) and the context's
// error; the block then runs to its end, within log(ε)/log(1−α) sweeps.
// The per-query ICA reseed does not apply, which is part of the
// documented approximation. Under WithStats each sweep counts as one
// o_contract call over P's entries (P is O collapsed at z̄), each W
// product as one w_matvec call, and each column's z as one r_contract
// call.
func (m *Model) solveFast(ctx context.Context, cols []columnState, rs *runScratch) []ColumnResult {
	n, mm := m.graph.N(), m.graph.M()
	out := make([]ColumnResult, len(cols))
	colOf := make([]int, 0, len(cols)) // active column -> index into cols
	stop := func(j int, err error) {
		out[j].X, out[j].Z = vec.Clone(cols[j].l), vec.Uniform(mm)
		out[j].Stopped = err
	}
	for j, cs := range cols {
		out[j] = ColumnResult{Seeds: cs.seeds, Restart: cs.l}
		if err := columnErr(ctx, cs.ctx); err != nil {
			stop(j, err)
			continue
		}
		colOf = append(colOf, j)
	}
	if len(colOf) == 0 {
		return out
	}
	sys, err := m.linearSystem()
	if err != nil {
		for _, j := range colOf {
			stop(j, err)
		}
		return out
	}

	b := len(colOf)
	s := vec.Stride(b)
	x, xn, l := make([]float64, n*s), make([]float64, n*s), make([]float64, n*s)
	uniform := vec.Uniform(n)
	for col, j := range colOf {
		vec.ScatterCol(uniform, x, col, s)
		vec.ScatterCol(cols[j].l, l, col, s)
	}
	beta := m.cfg.Beta()
	var tmp []float64
	if beta > 0 && m.w != nil {
		tmp = make([]float64, n*s)
	}
	ms := sparse.NewMulBatchScratch(rs.workers)
	ms.NoASM = rs.opts.noASM
	keep := make([]int, 0, b)
	fireLayout(b, s, x, l)
	retire := func(col int, src []float64) {
		r := &out[colOf[col]]
		r.X = vec.New(n)
		vec.GatherCol(src, col, s, r.X)
	}
	for sweep := 0; sweep < m.cfg.MaxIterations && b > 0; sweep++ {
		xb, xnb, lb := x[:n*s], xn[:n*s], l[:n*s]
		rs.timeKernel(obs.KernelO, sys.NNZ(), b, func() { sys.ApplyBatch(rs.pool, ms, xb, lb, xnb, s) })
		if tmp != nil {
			tb := tmp[:n*s]
			rs.mulFeatureBatch(xb, tb, s, b)
			vec.Axpy(beta, tb, xnb)
		}
		keep = keep[:0]
		for col := 0; col < b; col++ {
			r := &out[colOf[col]]
			rho := vec.Diff1Col(xnb, xb, col, s)
			r.Trace = append(r.Trace, rho)
			if rho < m.cfg.Epsilon {
				r.Converged = true
				retire(col, xnb)
				continue
			}
			keep = append(keep, col)
		}
		x, xn = xn, x
		if len(keep) < b {
			ns := vec.Stride(len(keep))
			vec.CompactCols(x, n, s, keep, ns)
			vec.CompactCols(l, n, s, keep, ns)
			for nc, oc := range keep {
				colOf[nc] = colOf[oc]
			}
			b, s = len(keep), ns
			colOf = colOf[:b]
			fireLayout(b, s, x[:n*s], l[:n*s])
		}
	}
	for col := range colOf {
		retire(col, x[:n*s])
	}
	for j := range out {
		if r := &out[j]; r.Stopped == nil {
			r.Iterations = len(r.Trace)
			r.Z = vec.New(mm)
			rs.timeKernel(obs.KernelR, m.r.NNZ(), 1, func() { m.r.Apply(r.X, r.Z) })
			vec.Normalize1(r.Z)
		}
	}
	return out
}

// runApproximate is the fast tier of the multi-class Run: every class
// is one column of a single solveFast block. Classes are independent
// here — the ICA cross-class coupling is dropped by design — so a
// context cancelled before the block leaves every class at its seed
// state, and one cancelled while the block runs lets it finish.
func (m *Model) runApproximate(ctx context.Context, res *Result, rs *runScratch) error {
	if _, err := m.linearSystem(); err != nil {
		return err
	}
	cols := make([]columnState, m.graph.Q())
	for c := range cols {
		cols[c].l, cols[c].seeds = m.seedVector(c)
	}
	progress := rs.opts.progress
	for c, cr := range m.solveFast(ctx, cols, rs) {
		res.Classes[c] = ClassResult{
			Class: c, X: cr.X, Z: cr.Z,
			Iterations: cr.Iterations, Converged: cr.Converged,
			Trace: cr.Trace, Seeds: cr.Seeds, Restart: cr.Restart,
		}
		if progress != nil {
			for i, r := range cr.Trace {
				progress(c, i+1, r)
			}
		}
	}
	return nil
}
