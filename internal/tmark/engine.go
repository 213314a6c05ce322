package tmark

// The lockstep column engine: the one iteration loop behind every
// iterative T-Mark solve. A column is one restart vector iterated through
// eq. (10) and eq. (8). The engine interleaves its active columns into a
// node-major n×s block X (entry (i, col) at i*s+col) and an m×s block Z,
// so every kernel pass streams each tensor entry and CSR row once and
// applies it to all b active columns — the kernels are
// memory-bandwidth-bound, so a block of q columns costs far less than q
// single-vector solves. The stride s is vec.Stride(b), the width the
// kernels' vector bodies run at, and lanes b..s−1 hold +0. Columns
// retire when they converge, stop or fault: their state is gathered into
// the column's result and the block is compacted to the stride of the
// survivors, so late iterations only pay for stragglers.
//
// Every caller is a column set plus two pieces of data:
//
//   - argmax couples the columns through eq. (12). The class runs (Run,
//     RunContext, RunWarm) set it under the ICA update, so a free node
//     joins only its argmax class's restart set; RunClass and the query
//     columns of SolveColumns reseed each column alone.
//   - stopOnFault makes the columns one answer: the class runs stop the
//     whole block at the first corruption fault, holding the last healthy
//     iterate, and the demoted retry re-runs them; a query column faults
//     alone.
//
// A column's context (nil for class columns) cancels it alone; the run
// context cancels every column at once.
//
// Per column the engine is bitwise independent of the block it rides
// in and of the worker count: every blocked kernel accumulates each
// column's floats in single-vector order, whichever worker runs them
// (internal/tensor/batch.go), the
// per-column simplex projection and residual mirror vec.Normalize1 and
// vec.Diff1, and retirement only removes a column's storage — no kernel
// mixes columns. The sequential oracle in the package tests pins this
// bitwise for every caller.

import (
	"context"
	"math"

	"tmark/internal/accel"
	"tmark/internal/fault"
	"tmark/internal/obs"
	"tmark/internal/vec"
)

// Per-node roles in one column's restart reseed (eq. 12).
const (
	nodeFree     uint8 = iota // unlabelled: may become a pseudo-seed
	nodeSeed                  // always in the restart set
	nodeExcluded              // labelled with another class: never a seed
)

// engineCol is one column of the engine: the validated class or query
// it solves and, as the loop runs, its result and solver state.
type engineCol struct {
	columnState
	res  ColumnResult        // X and Z are set once the column retires
	ex   *accel.Extrapolator // non-nil for an accelerated column
	best float64             // best committed residual (divergence guard)

	// The extrapolation vet of the current pass: a candidate is scattered
	// into the block (jumped) and rejected (vetoed) when the pass it rides
	// fails a probe or does not improve on the last committed residual.
	jumped, vetoed bool
}

// engine is the working set of one lockstep solve. The blocked buffers
// are sized for the initial stride and re-sliced to the current one as
// columns retire.
type engine struct {
	m    *Model
	rs   *runScratch
	cols []engineCol

	// argmax, when non-nil, couples the columns through eq. (12): a free
	// node joins column c's restart set only when c is its argmax column,
	// and every column's restart vector is rebuilt each pass — retired
	// ones too, since they stay part of the prediction matrix. nil
	// reseeds each active column on its own scores.
	argmax []int
	// stopOnFault: the first corruption fault stops the block with its
	// last healthy iterate, and a divergence or stagnation verdict stops
	// it too. Otherwise a faulting column retires alone.
	stopOnFault bool

	n, mm  int
	b      int   // active column count
	stride int   // vec.Stride(b): the lane stride of every block
	colOf  []int // active column -> column index, ascending; len b
	slot   []int // column index -> active column, or -1 once retired

	x, z   []float64 // committed blocked state; lanes b..stride−1 hold +0
	xn, zn []float64 // next iterates
	tmp    []float64 // feature-channel product W·X
	keep   []int     // compaction scratch
	rhos   []float64 // per-column residuals of the current pass
	bad    []string  // per-column corruption verdicts ("" = healthy)
}

// newEngine lays the columns out in a fresh block. A column whose result
// already holds X (a fast-tier query answered before the loop) enters
// retired; every other column starts from its warm state, or cold from
// (l, uniform z).
func (m *Model) newEngine(rs *runScratch, cols []engineCol) *engine {
	n, mm := m.graph.N(), m.graph.M()
	e := &engine{
		m: m, rs: rs, cols: cols,
		n: n, mm: mm,
		colOf: make([]int, 0, len(cols)),
		slot:  make([]int, len(cols)),
	}
	for j := range cols {
		c := &cols[j]
		c.best = math.Inf(1)
		if c.res.X != nil {
			e.slot[j] = -1
			continue
		}
		e.slot[j] = len(e.colOf)
		e.colOf = append(e.colOf, j)
		c.res = ColumnResult{Seeds: c.seeds, Restart: c.l}
		if c.quality == QualityAccelerated {
			c.ex = accel.NewExtrapolator(n, mm, &rs.accel)
		}
	}
	b := len(e.colOf)
	s := vec.Stride(b)
	e.b, e.stride = b, s
	e.x, e.z = make([]float64, n*s), make([]float64, mm*s)
	e.xn, e.zn = make([]float64, n*s), make([]float64, mm*s)
	e.tmp = make([]float64, n*s)
	e.keep = make([]int, 0, b)
	e.rhos = make([]float64, b)
	e.bad = make([]string, b)
	var uniformZ vec.Vector
	for col, j := range e.colOf {
		c := &cols[j]
		x, z := c.warmX, c.warmZ
		if x == nil {
			if uniformZ == nil {
				uniformZ = vec.Uniform(mm)
			}
			x, z = c.l, uniformZ
		}
		vec.ScatterCol(x, e.x, col, s)
		vec.ScatterCol(z, e.z, col, s)
	}
	fireLayout(b, s, e.x, e.z)
	return e
}

// fireLayout fires the SolverLayout fault point over a solve's blocks:
// its active column count, its lane stride and its two blocks.
func fireLayout(active, stride int, x, y []float64) {
	if fault.Enabled() {
		fault.Fire(fault.SolverLayout, active, stride, x, y)
	}
}

// run iterates to the end and gathers every still-active column into its
// result. The returned fault is the verdict that stopped a stopOnFault
// block.
func (e *engine) run(ctx context.Context) *runFault {
	flt := e.iterate(ctx)
	err := ctx.Err()
	e.retire(func(c *engineCol) bool {
		if err != nil && c.res.Stopped == nil {
			c.res.Stopped = err
		}
		return true
	})
	return flt
}

// iterate is the lockstep loop. Per pass: cancellation checks, the
// restart reseed from t = 3 (Algorithm 1), pending extrapolation
// candidates, the eq. (10) and eq. (8) kernels, and the health probes —
// all before the commit (copy xn→x), so a faulting column still holds
// its last healthy iteration.
//
// With acceleration, a column carries an extrapolator over its committed
// (x, z) sequence. A pending candidate is scattered into the block after
// the reseed (which must read committed state only) and vetted by riding
// one ordinary pass: the kernels map the candidate u to F(u), and it is
// accepted exactly when the pass stays healthy and d(u, F(u)) is strictly
// below the column's last committed residual. A rejected pass restores
// the pre-jump column into the next block before the commit and touches
// no bookkeeping, so a column whose every proposal is rejected commits
// bitwise the plain run's iterates and trace.
func (e *engine) iterate(ctx context.Context) *runFault {
	m, rs := e.m, e.rs
	alpha, beta := m.cfg.Alpha, m.cfg.Beta()
	rel := 1 - alpha - beta
	n, mm := e.n, e.mm
	g := rs.opts.guards
	progress := rs.opts.progress
	for t := 1; t <= m.cfg.MaxIterations && e.b > 0; t++ {
		// A run-level cancellation breaks out before any column is marked;
		// run stamps the survivors with the context's error.
		if ctx.Err() != nil {
			break
		}
		if e.cancelColumns() && e.b == 0 {
			break
		}
		if t > 2 {
			e.reseed()
		}
		b, s := e.b, e.stride
		x, z, xn, zn := e.x[:n*s], e.z[:mm*s], e.xn[:n*s], e.zn[:mm*s]
		anyJump := false
		for col := 0; col < b; col++ {
			if c := e.at(col); c.ex != nil && c.ex.Pending() {
				c.ex.ScatterCandidate(x, z, col, s)
				c.jumped, c.vetoed = true, false
				anyJump = true
			}
		}
		if rel > 0 {
			rs.applyNodeBatch(m.o, x, z, xn, s, b)
			vec.Scale(rel, xn)
		} else {
			vec.Fill(xn, 0)
		}
		if beta > 0 && m.w != nil {
			tmp := e.tmp[:n*s]
			rs.mulFeatureBatch(x, tmp, s, b)
			vec.Axpy(beta, tmp, xn)
		}
		// The simplex projection: rounding in the dangling-mass closed
		// forms compounds across iterations, and the fixed point has unit
		// mass anyway. Its by-product, the pre-normalisation mass, is the
		// corruption probe.
		bad := e.bad[:b]
		for col := 0; col < b; col++ {
			c := e.at(col)
			bad[col] = ""
			vec.AxpyCol(alpha, c.l, xn, col, s)
			mass, ok := vec.Normalize1ColMass(xn, col, s)
			kind, _ := badMass(mass, ok, g)
			e.probe(c, &bad[col], kind)
		}
		if flt := e.corrupt(t); flt != nil {
			return flt
		}
		rs.applyRelationBatch(m.r, xn, zn, s, b)
		for col := 0; col < b; col++ {
			if c := e.at(col); bad[col] == "" && !c.vetoed {
				mass, ok := vec.Normalize1ColMass(zn, col, s)
				kind, _ := badMass(mass, ok, g)
				e.probe(c, &bad[col], kind)
			}
		}
		if flt := e.corrupt(t); flt != nil {
			return flt
		}
		// Every column's ρ must be finite before any bookkeeping commits,
		// so a fault never leaves a torn trace behind.
		rhos := e.rhos[:b]
		for col := 0; col < b; col++ {
			if c := e.at(col); bad[col] == "" && !c.vetoed {
				rhos[col] = vec.Diff1Col(x, xn, col, s) + vec.Diff1Col(z, zn, col, s)
				if nonFinite(rhos[col]) {
					e.probe(c, &bad[col], faultNonFinite)
				}
			}
		}
		if flt := e.corrupt(t); flt != nil {
			return flt
		}
		if anyJump {
			for col := 0; col < b; col++ {
				c := e.at(col)
				if !c.jumped {
					continue
				}
				last := math.Inf(1)
				if tr := c.res.Trace; len(tr) > 0 {
					last = tr[len(tr)-1]
				}
				if !c.vetoed && rhos[col] < last {
					c.ex.Accept()
				} else {
					c.ex.RestoreInto(xn, zn, col, s)
					c.ex.Reject()
					c.vetoed = true
				}
				c.jumped = false
			}
		}
		// A faulted column gets its pre-iteration (healthy) state written
		// back into the next block before the commit, so the block never
		// holds a corrupted column and the column retires with the last
		// healthy iterate.
		done := false
		for col := 0; col < b; col++ {
			if bad[col] == "" {
				continue
			}
			regNumericalFaults.Inc()
			e.at(col).res.Stopped = ErrNumericalFault
			for r := 0; r < n; r++ {
				xn[r*s+col] = x[r*s+col]
			}
			for r := 0; r < mm; r++ {
				zn[r*s+col] = z[r*s+col]
			}
			done = true
		}
		for col := 0; col < b; col++ {
			c := e.at(col)
			if bad[col] != "" || c.vetoed {
				// Faulted, or a rejected vet pass: nothing committed.
				continue
			}
			rho := rhos[col]
			c.res.Trace = append(c.res.Trace, rho)
			c.res.Iterations++
			if progress != nil {
				progress(e.colOf[col], c.res.Iterations, rho)
			}
			if rho < m.cfg.Epsilon {
				c.res.Converged = true
				done = true
			}
		}
		copy(x, xn)
		copy(z, zn)
		// The opt-in series probes run post-commit: divergence and
		// stagnation are verdicts about the (valid) residual series, so
		// the committed state is what the stopped run reports, and neither
		// is retryable — they reproduce deterministically.
		for col := 0; col < b; col++ {
			c := e.at(col)
			if bad[col] != "" || c.vetoed || c.res.Converged {
				continue
			}
			kind, stop := "", error(nil)
			switch rho := rhos[col]; {
			case diverged(rho, c.best, g):
				regNumericalFaults.Inc()
				kind, stop = faultDivergence, ErrNumericalFault
			default:
				if rho < c.best {
					c.best = rho
				}
				if stagnated(c.res.Trace, g) {
					regStagnations.Inc()
					kind, stop = faultStagnation, ErrStagnated
				}
			}
			if stop == nil {
				continue
			}
			if e.stopOnFault {
				return &runFault{fault: Fault{Class: e.colOf[col], Iter: t, Kind: kind}}
			}
			c.res.Stopped = stop
			done = true
		}
		// Feed the extrapolators the freshly committed iterates before
		// retirement compacts the block. Observe runs even through a
		// shutoff cooldown — the committed iterates count it down; Propose
		// no-ops until it expires.
		for col := 0; col < b; col++ {
			c := e.at(col)
			c.vetoed = false
			if c.ex != nil && !c.res.Converged && c.res.Stopped == nil {
				c.ex.Observe(x, z, col, s)
				c.ex.Propose()
			}
		}
		if done {
			e.retire(func(c *engineCol) bool { return c.res.Converged || c.res.Stopped != nil })
		}
	}
	return nil
}

// at returns the column in active slot col.
func (e *engine) at(col int) *engineCol { return &e.cols[e.colOf[col]] }

// probe records one health-probe verdict ("" = healthy) for a column. A
// candidate under vet faults only its own jump — the proposal is
// rejected, never escalated to a column fault.
func (e *engine) probe(c *engineCol, bad *string, kind string) {
	switch {
	case kind == "":
	case c.jumped:
		c.vetoed = true
	default:
		*bad = kind
	}
}

// corrupt turns the first corruption verdict of the pass into the
// block's stop when the columns form one answer: every candidate still
// under vet is undone, so the stopped block reports committed state only,
// never an extrapolated candidate.
func (e *engine) corrupt(t int) *runFault {
	if !e.stopOnFault {
		return nil
	}
	for col, kind := range e.bad[:e.b] {
		if kind == "" {
			continue
		}
		for c := 0; c < e.b; c++ {
			if cc := e.at(c); cc.jumped {
				cc.ex.RestoreInto(e.x, e.z, c, e.stride)
				cc.ex.Reject()
				cc.jumped = false
			}
		}
		regNumericalFaults.Inc()
		return &runFault{
			fault:     Fault{Class: e.colOf[col], Iter: t, Kind: kind},
			retryable: true,
		}
	}
	return nil
}

// cancelColumns retires every active column whose own context is done,
// with the state of its last completed iteration, and reports whether
// any did.
func (e *engine) cancelColumns() bool {
	stopped := false
	for col := 0; col < e.b; col++ {
		if c := e.at(col); c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				c.res.Stopped = err
				stopped = true
			}
		}
	}
	if stopped {
		e.retire(func(c *engineCol) bool { return c.res.Stopped != nil })
	}
	return stopped
}

// retire gathers every active column that done selects into its result
// and left-packs the survivors at the stride of their count, with +0 in
// the freed lanes (vec.CompactCols).
func (e *engine) retire(done func(c *engineCol) bool) {
	e.keep = e.keep[:0]
	for col := 0; col < e.b; col++ {
		j := e.colOf[col]
		if c := &e.cols[j]; done(c) {
			c.res.X, c.res.Z = vec.New(e.n), vec.New(e.mm)
			vec.GatherCol(e.x, col, e.stride, c.res.X)
			vec.GatherCol(e.z, col, e.stride, c.res.Z)
			e.slot[j] = -1
			continue
		}
		e.keep = append(e.keep, col)
	}
	if len(e.keep) == e.b {
		return
	}
	s := vec.Stride(len(e.keep))
	vec.CompactCols(e.x, e.n, e.stride, e.keep, s)
	vec.CompactCols(e.z, e.mm, e.stride, e.keep, s)
	for nc, oc := range e.keep {
		j := e.colOf[oc]
		e.colOf[nc] = j
		e.slot[j] = nc
	}
	e.b, e.stride = len(e.keep), s
	e.colOf = e.colOf[:e.b]
	fireLayout(e.b, s, e.x[:e.n*s], e.z[:e.mm*s])
}

// colX locates column j's current node scores: node i's score is
// x[i*stride+off], in the active block while the column iterates and in
// its frozen result once retired.
func (e *engine) colX(j int) (x []float64, off, stride int) {
	if s := e.slot[j]; s >= 0 {
		return e.x, s, e.stride
	}
	return e.cols[j].res.X, 0, 1
}

// reseed rebuilds the restart vectors of the columns that carry reseed
// roles. It reads only the committed scores, never the previous l, so it
// is idempotent on a fixed block.
func (e *engine) reseed() {
	k := 0
	for j := range e.cols {
		if e.reseeds(j) {
			k++
		}
	}
	if k == 0 {
		return
	}
	e.rs.timeKernel(obs.KernelReseed, k*e.n, k, func() {
		if e.argmax != nil {
			for i := range e.argmax {
				best, bestC := -1.0, -1
				for j := range e.cols {
					x, off, stride := e.colX(j)
					if v := x[i*stride+off]; v > best {
						best, bestC = v, j
					}
				}
				e.argmax[i] = bestC
			}
		}
		for j := range e.cols {
			if e.reseeds(j) {
				c := &e.cols[j]
				x, off, stride := e.colX(j)
				reseedRestart(e.m.cfg.Lambda, c.label, x, off, stride, e.argmax, j, c.l)
			}
		}
	})
}

// reseeds reports whether a pass rebuilds column j's restart vector: a
// column with reseed roles while it iterates, and under the eq. (12)
// coupling after it retires too, since it stays in the prediction matrix.
func (e *engine) reseeds(j int) bool {
	return e.cols[j].label != nil && (e.argmax != nil || e.slot[j] >= 0)
}

// reseedRestart rebuilds column col's restart vector l from its current
// scores (eq. 12): the seeds, plus every free node whose score exceeds
// λ times the best free score — and, when argmax is set, whose argmax
// column is col. The threshold is relative to the free maximum because
// the seeds hold most of the stationary mass (the α·l restart feeds them
// directly), so a global-max threshold would never admit anyone. The
// result is renormalised; an empty set falls back to uniform.
func reseedRestart(lambda float64, label []uint8, x []float64, off, stride int, argmax []int, col int, l vec.Vector) {
	maxFree := 0.0
	for i, role := range label {
		if v := x[i*stride+off]; role == nodeFree && v > maxFree {
			maxFree = v
		}
	}
	threshold := lambda * maxFree
	count := 0
	for i, role := range label {
		accept := role == nodeSeed
		if !accept && role == nodeFree && maxFree > 0 {
			accept = (argmax == nil || argmax[i] == col) && x[i*stride+off] > threshold
		}
		if accept {
			l[i] = 1
			count++
		} else {
			l[i] = 0
		}
	}
	if count == 0 {
		vec.Fill(l, 1/float64(len(l)))
		return
	}
	vec.Scale(1/float64(count), l)
}
