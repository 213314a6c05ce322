package tmark

// The sequential reference solver: the bitwise oracle every engine path
// is checked against. It steps one class or query at a time through the
// single-vector kernels — O and R's serial Apply and W's MulVec — at
// every worker count, since no kernel's answer depends on the worker
// count, and carries its own copy of the three reseed rules of eq. (12),
// so it shares no loop, no block layout and no reseed code with the
// engine. Its fast tier (solveFast) sweeps one column at a time through
// the serial single-vector MulVec.

import (
	"math"
	"testing"

	"tmark/internal/sparse"
	"tmark/internal/vec"
)

type oracle struct {
	m     *Model
	dense *denseTransitions // non-nil: O and R from explicit dense arrays

	// The fast tier's collapsed operator, built on first use: P with z
	// frozen at uniform, and the dangling weight of each source node.
	fastP      *sparse.Matrix
	fastDangle []float64
}

// newOracle builds the reference solver of m.
func newOracle(m *Model) *oracle { return &oracle{m: m} }

// oracleState is the working set of one class or query.
type oracleState struct {
	x, z, l    vec.Vector
	xNext      vec.Vector
	zNext      vec.Vector
	tmp        vec.Vector
	converged  bool
	iterations int
	trace      []float64
}

func (o *oracle) newState(x, z, l vec.Vector) oracleState {
	n, mm := o.m.graph.N(), o.m.graph.M()
	return oracleState{x: x, z: z, l: l, xNext: vec.New(n), zNext: vec.New(mm), tmp: vec.New(n)}
}

func (o *oracle) applyNode(x, z, dst vec.Vector) {
	if o.dense != nil {
		o.dense.applyNode(x, z, dst)
		return
	}
	o.m.o.Apply(x, z, dst)
}

func (o *oracle) applyRelation(x, dst vec.Vector) {
	if o.dense != nil {
		o.dense.applyRelation(x, dst)
		return
	}
	o.m.r.Apply(x, dst)
}

// step performs one iteration of eq. (10) and eq. (8) and returns ρ. A
// corrupted iterate is discarded — x and z keep iteration t−1 — and
// signalled with a NaN residual.
func (o *oracle) step(s *oracleState) float64 {
	alpha, beta := o.m.cfg.Alpha, o.m.cfg.Beta()
	if rel := 1 - alpha - beta; rel > 0 {
		o.applyNode(s.x, s.z, s.xNext)
		vec.Scale(rel, s.xNext)
	} else {
		vec.Fill(s.xNext, 0)
	}
	if beta > 0 && o.m.w != nil {
		o.m.w.MulVec(s.x, s.tmp)
		vec.Axpy(beta, s.tmp, s.xNext)
	}
	vec.Axpy(alpha, s.l, s.xNext)
	okX := vec.Normalize1(s.xNext)
	o.applyRelation(s.xNext, s.zNext)
	okZ := vec.Normalize1(s.zNext)
	rho := vec.Diff1(s.x, s.xNext) + vec.Diff1(s.z, s.zNext)
	if !okX || !okZ || nonFinite(rho) {
		return math.NaN()
	}
	copy(s.x, s.xNext)
	copy(s.z, s.zNext)
	return rho
}

// advance commits one step's bookkeeping and reports whether the state
// is finished (converged or faulted).
func (o *oracle) advance(s *oracleState) bool {
	rho := o.step(s)
	if math.IsNaN(rho) {
		return true
	}
	s.trace = append(s.trace, rho)
	s.iterations++
	s.converged = rho < o.m.cfg.Epsilon
	return s.converged
}

// run solves every class in lockstep: under the ICA update each
// iteration from t = 3 first rebuilds every class's restart vector from
// the prediction matrix (eq. 12), converged classes included; then each
// unconverged class takes one step. warm, when non-nil, supplies a
// class's start state and (optionally) its restart vector.
func (o *oracle) run(warm warmFn) *Result {
	m := o.m
	n, mm, q := m.graph.N(), m.graph.M(), m.graph.Q()
	states := make([]oracleState, q)
	seeds := make([]int, q)
	for c := range states {
		l, k := m.seedVector(c)
		seeds[c] = k
		x, z := vec.Clone(l), vec.Uniform(mm)
		if warm != nil {
			if wx, wz, wl, ok := warm(c); ok {
				x, z = wx, wz
				if wl != nil {
					l = wl
				}
			}
		}
		states[c] = o.newState(x, z, l)
	}
	argmax := make([]int, n)
	for t := 1; t <= m.cfg.MaxIterations; t++ {
		if m.cfg.ICAUpdate && t > 2 {
			o.reseedAll(states, argmax)
		}
		active := false
		for c := range states {
			if s := &states[c]; !s.converged {
				if o.advance(s) && !s.converged {
					return o.result(states, seeds) // fault: stop with the last healthy state
				}
				active = active || !s.converged
			}
		}
		if !active {
			break
		}
	}
	return o.result(states, seeds)
}

func (o *oracle) result(states []oracleState, seeds []int) *Result {
	m := o.m
	res := &Result{Classes: make([]ClassResult, len(states)), n: m.graph.N(), m: m.graph.M(), q: len(states)}
	for c := range states {
		s := &states[c]
		res.Classes[c] = ClassResult{
			Class: c, X: s.x, Z: s.z, Iterations: s.iterations, Converged: s.converged,
			Trace: s.trace, Seeds: seeds[c], Restart: s.l,
		}
	}
	return res
}

// runClass solves class c alone; under the ICA update it reseeds from
// its own scores, with no cross-class argmax.
func (o *oracle) runClass(c int) ClassResult {
	m := o.m
	l, seeds := m.seedVector(c)
	s := o.newState(vec.Clone(l), vec.Uniform(m.graph.M()), l)
	for t := 1; t <= m.cfg.MaxIterations; t++ {
		if m.cfg.ICAUpdate && t > 2 {
			o.reseedClass(c, s.x, s.l)
		}
		if o.advance(&s) {
			break
		}
	}
	return ClassResult{
		Class: c, X: s.x, Z: s.z, Iterations: s.iterations, Converged: s.converged,
		Trace: s.trace, Seeds: seeds, Restart: s.l,
	}
}

// solveColumn solves one query on its own; with ICA it reseeds with the
// query's seed set as the labelled set.
func (o *oracle) solveColumn(t testing.TB, q ColumnQuery) ColumnResult {
	t.Helper()
	m := o.m
	cs, err := m.buildColumnState(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	x0, z0 := cs.l, vec.Uniform(m.graph.M())
	if cs.warmX != nil {
		x0, z0 = cs.warmX, cs.warmZ
	}
	isSeed := make([]bool, len(cs.l))
	for i, v := range cs.l {
		isSeed[i] = v > 0
	}
	s := o.newState(vec.Clone(x0), vec.Clone(z0), cs.l)
	for it := 1; it <= m.cfg.MaxIterations; it++ {
		if q.ICA && it > 2 {
			o.reseedQuery(isSeed, s.x, s.l)
		}
		if o.advance(&s) {
			break
		}
	}
	return ColumnResult{
		X: s.x, Z: s.z, Restart: s.l, Seeds: cs.seeds,
		Iterations: s.iterations, Converged: s.converged, Trace: s.trace,
	}
}

// reseedAll rebuilds every class's restart vector from the prediction
// matrix (eq. 12): unlabelled node i joins class c's seeds when c is
// i's argmax class and x[i] clears λ times the best unlabelled
// probability of class c.
func (o *oracle) reseedAll(states []oracleState, argmax []int) {
	g := o.m.graph
	for i := range argmax {
		best, bestC := -1.0, -1
		for c := range states {
			if v := states[c].x[i]; v > best {
				best, bestC = v, c
			}
		}
		argmax[i] = bestC
	}
	for c := range states {
		s := &states[c]
		maxUnlabeled := 0.0
		for i, v := range s.x {
			if !g.Labeled(i) && v > maxUnlabeled {
				maxUnlabeled = v
			}
		}
		threshold := o.m.cfg.Lambda * maxUnlabeled
		count := 0
		for i := range s.l {
			accept := g.HasLabel(i, c)
			if !accept && !g.Labeled(i) && maxUnlabeled > 0 {
				accept = argmax[i] == c && s.x[i] > threshold
			}
			if accept {
				s.l[i] = 1
				count++
			} else {
				s.l[i] = 0
			}
		}
		normaliseRestart(s.l, count)
	}
}

// reseedClass is reseedAll for one class on its own: no argmax filter.
func (o *oracle) reseedClass(c int, x, l vec.Vector) {
	g := o.m.graph
	maxUnlabeled := 0.0
	for i, v := range x {
		if !g.Labeled(i) && v > maxUnlabeled {
			maxUnlabeled = v
		}
	}
	threshold := o.m.cfg.Lambda * maxUnlabeled
	count := 0
	for i := range l {
		if g.HasLabel(i, c) || (maxUnlabeled > 0 && x[i] > threshold && !g.Labeled(i)) {
			l[i] = 1
			count++
		} else {
			l[i] = 0
		}
	}
	normaliseRestart(l, count)
}

// reseedQuery is the per-query self-training reseed: non-seed node i
// joins when its score clears λ times the best non-seed score.
func (o *oracle) reseedQuery(isSeed []bool, x, l vec.Vector) {
	maxFree := 0.0
	for i, v := range x {
		if !isSeed[i] && v > maxFree {
			maxFree = v
		}
	}
	threshold := o.m.cfg.Lambda * maxFree
	count := 0
	for i := range l {
		if isSeed[i] || (maxFree > 0 && x[i] > threshold) {
			l[i] = 1
			count++
		} else {
			l[i] = 0
		}
	}
	normaliseRestart(l, count)
}

// normaliseRestart scales a 0/1 restart set to a distribution, or falls
// back to uniform when it is empty.
func normaliseRestart(l vec.Vector, count int) {
	if count == 0 {
		vec.Fill(l, 1/float64(len(l)))
		return
	}
	vec.Scale(1/float64(count), l)
}

// solveFast is the fast tier's reference for one restart vector l:
// serial single-vector Jacobi sweeps of the collapsed system
//
//	x ← rel·(P·x + uniform dangling mass) + α·l + β·W·x,  rel = 1−α−β,
//
// from the uniform start until the L1 step drops below ε or MaxIterations
// sweeps ran, then z = R ×̄ x normalised. P is z̄ = uniform folded through
// tensor.CollapseZ and assembled by sparse.FromTriplets.
func (o *oracle) solveFast(l vec.Vector, seeds int) ColumnResult {
	m := o.m
	n, mm := m.graph.N(), m.graph.M()
	if o.fastP == nil {
		rows, cols, vals, dangle := m.o.CollapseZ(vec.Uniform(mm))
		ts := make([]sparse.Triplet, len(rows))
		for q := range rows {
			ts[q] = sparse.Triplet{Row: int(rows[q]), Col: int(cols[q]), Value: vals[q]}
		}
		o.fastP, o.fastDangle = sparse.FromTriplets(n, n, ts), dangle
	}
	alpha, beta := m.cfg.Alpha, m.cfg.Beta()
	rel := 1 - alpha - beta
	x, xn, scratch := make(vec.Vector, n), vec.New(n), vec.New(n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	rho := math.Inf(1)
	var trace []float64
	for sweep := 0; sweep < m.cfg.MaxIterations; sweep++ {
		o.fastP.MulVec(x, xn)
		var lost float64
		for j, d := range o.fastDangle {
			lost += d * x[j]
		}
		uni := rel * lost / float64(n)
		for i := range xn {
			xn[i] = rel*xn[i] + uni + alpha*l[i]
		}
		if beta != 0 && m.w != nil {
			m.w.MulVec(x, scratch)
			for i := range xn {
				xn[i] += beta * scratch[i]
			}
		}
		rho = 0
		for i := range xn {
			rho += math.Abs(xn[i] - x[i])
		}
		x, xn = xn, x
		trace = append(trace, rho)
		if rho < m.cfg.Epsilon {
			break
		}
	}
	z := vec.New(mm)
	m.r.Apply(x, z)
	vec.Normalize1(z)
	return ColumnResult{
		X: x, Z: z, Restart: l, Seeds: seeds,
		Iterations: len(trace), Converged: rho < m.cfg.Epsilon, Trace: trace,
	}
}

// runFast is Run(WithApproximate) on the reference: every class solved
// alone by solveFast from its seed vector.
func (o *oracle) runFast() *Result {
	m := o.m
	q := m.graph.Q()
	res := &Result{Classes: make([]ClassResult, q), n: m.graph.N(), m: m.graph.M(), q: q}
	for c := range res.Classes {
		l, seeds := m.seedVector(c)
		r := o.solveFast(l, seeds)
		res.Classes[c] = ClassResult{
			Class: c, X: r.X, Z: r.Z, Iterations: r.Iterations, Converged: r.Converged,
			Trace: r.Trace, Seeds: r.Seeds, Restart: r.Restart,
		}
	}
	return res
}
