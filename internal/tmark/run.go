package tmark

// The context-aware run API. RunContext is the solver's real entry point:
// Run and RunWarm are thin wrappers over it. The functional options
// select per-run behaviour — telemetry collection (WithStats), an
// iteration callback (WithProgress), a worker-count override
// (WithWorkers) — without widening the method signature, and the context
// makes every run cancellable: the engine checks ctx between iterations,
// so a cancelled or expired context stops the solver within one
// iteration and the partial Result (with Stopped/Reason set) remains
// fully usable for prediction.

import (
	"context"
	"errors"

	"tmark/internal/accel"
	"tmark/internal/obs"
	"tmark/internal/par"
	"tmark/internal/sparse"
	"tmark/internal/tensor"
	"tmark/internal/vec"
)

// Reason labels why a solver run returned.
type Reason int

const (
	// ReasonUnknown is the zero value; results loaded from disk or built
	// before this field existed carry it.
	ReasonUnknown Reason = iota
	// ReasonConverged: every class reached ρ_t < ε.
	ReasonConverged
	// ReasonMaxIterations: the iteration cap fired before convergence.
	ReasonMaxIterations
	// ReasonCanceled: the run's context was cancelled mid-solve.
	ReasonCanceled
	// ReasonDeadline: the run's context deadline expired mid-solve.
	ReasonDeadline
	// ReasonNumericalFault: a numerical-health guard detected a
	// corrupted or diverging iterate and the (possibly retried) run
	// stopped with the last healthy state; see Result.Faults.
	ReasonNumericalFault
	// ReasonStagnated: the residual series went flat before reaching
	// Epsilon (GuardConfig.Stagnation).
	ReasonStagnated
)

// String names the reason for logs and reports.
func (r Reason) String() string {
	switch r {
	case ReasonConverged:
		return "converged"
	case ReasonMaxIterations:
		return "max-iterations"
	case ReasonCanceled:
		return "canceled"
	case ReasonDeadline:
		return "deadline"
	case ReasonNumericalFault:
		return "numerical-fault"
	case ReasonStagnated:
		return "stagnated"
	default:
		return "unknown"
	}
}

// RunStats is the per-run telemetry record filled by WithStats: wall
// time, the per-kernel time/call/item split, per-class iteration counts
// and residual traces, worker-pool activity and the allocation delta.
type RunStats = obs.RunStats

// ClassStats is the per-class slice of a RunStats.
type ClassStats = obs.ClassStats

// KernelStats is the per-kernel slice of a RunStats.
type KernelStats = obs.KernelStats

// Kernel identifies a compute kernel in a RunStats.
type Kernel = obs.Kernel

// runOptions is the resolved option set of one run.
type runOptions struct {
	stats    *RunStats
	progress func(class, iter int, rho float64)
	workers  int // 0 keeps Config.Workers
	// noASM demotes the blocked kernels to their scalar reference bodies
	// (WithScalarKernels); the numerical-fault retry sets it too.
	noASM bool
	// guards enables the optional numerical-health probes; see WithGuards.
	guards *GuardConfig
	// accelerate turns on the extrapolated power method in the engine;
	// see WithAcceleration.
	accelerate bool
	// approximate replaces the fixed-point loop with the linearized
	// single-solve tier; see WithApproximate.
	approximate bool
}

// RunOption configures one solver run; see WithStats, WithProgress and
// WithWorkers.
type RunOption func(*runOptions)

// WithStats has the run fill s with its telemetry: wall time, the
// per-kernel time split, per-class iteration counts and residual traces,
// pool activity, and the allocation delta. Collection adds two clock
// reads per kernel call on the driver goroutine — negligible against the
// kernels themselves — and does not change any numeric result. s is
// rewritten in place, so one RunStats may be reused across runs.
func WithStats(s *RunStats) RunOption {
	return func(o *runOptions) { o.stats = s }
}

// WithProgress invokes fn after every iteration of every class with the
// class index, that class's iteration count, and the iteration's residual
// ρ. The callback runs on the solver goroutine: keep it cheap, and do not
// call back into the model from it. Cancelling the run's context from the
// callback stops the solver within one iteration. A numerical-fault
// retry re-runs the solve, so the callback then sees iterations from 1
// again.
func WithProgress(fn func(class, iter int, rho float64)) RunOption {
	return func(o *runOptions) { o.progress = fn }
}

// WithWorkers overrides Config.Workers for this run only: n = 1 forces a
// serial solve, n > 1 shards the kernels across n workers. n <= 0 keeps
// the model's configured value. The answer is bitwise the same at every
// n.
func WithWorkers(n int) RunOption {
	return func(o *runOptions) {
		if n > 0 {
			o.workers = n
		}
	}
}

// WithAcceleration(true) turns on the extrapolated power method in the
// engine (class runs and SolveColumns): every three
// committed iterates the solver proposes a SQUAREM-extrapolated
// candidate for each active column, projects it back onto the simplex,
// and vets it through one ordinary iteration pass under the same health
// probes a plain run applies — finite values, conserved column mass,
// and a residual strictly below the last committed one. A candidate
// that fails any probe is discarded and plain iteration resumes from
// the last committed iterate, so the converged answer satisfies exactly
// the guarantees of the unaccelerated solve (it converges in at most as
// many committed iterations, typically far fewer on slow-mixing
// configurations). A column whose proposals keep failing stops
// proposing, bounding the vet overhead.
func WithAcceleration(on bool) RunOption {
	return func(o *runOptions) { o.accelerate = on }
}

// WithApproximate(true) selects the linearized fast tier: instead of
// iterating the coupled (x, z) fixed point, the solver freezes z at the
// uniform distribution, collapses the tensor into one sparse matrix,
// and solves the resulting linear system for every class at once in at
// most log(ε)/log(1−α) blocked Jacobi sweeps. The answer is approximate
// — the ICA reseed is dropped and z never re-couples — but needs no
// tensor streaming; see internal/accel.System for the accuracy bound
// and the golden suite for the measured envelope. The run's context is
// checked once, before the sweeps start: cancelled then, every class
// keeps its seed state; cancelled later, the sweeps finish. Overrides
// WithAcceleration.
func WithApproximate(on bool) RunOption {
	return func(o *runOptions) { o.approximate = on }
}

// WithScalarKernels(true) demotes the blocked contractions and the CSR
// feature product to their scalar reference bodies even on hosts with
// the AVX2 kernels. The numerical-fault retry uses it to re-run a
// faulted solve on the reference path; tests use it to cover both
// kernel implementations on any machine. The scalar and vectorised
// bodies are bitwise identical by contract, so this changes no result —
// it only removes the hand-written assembly from the loop.
func WithScalarKernels(on bool) RunOption {
	return func(o *runOptions) { o.noASM = on }
}

// Run solves the tensor equations for every class; it is RunContext with
// a background context and no options. All classes advance in lockstep
// through the engine: the per-class distributions live in one blocked
// n×q matrix, so every tensor entry and CSR row is streamed once per
// iteration and applied to all active classes, and classes that converge
// retire from the block. The kernels are additionally sharded across a
// worker pool of cfg.Workers goroutines, so the solver scales with cores
// even when the class count is small (q = 4–5 on the paper's datasets).
// With the ICA update the lockstep order is also semantically required,
// because eq. (12) accepts "highly confident labels ... in the
// prediction matrix": a confident label is a cross-class statement, so
// after every iteration each unlabelled node may join the restart set of
// its argmax class only.
func (m *Model) Run() *Result {
	return m.RunContext(context.Background())
}

// RunContext is Run with cancellation and per-run options. The engine
// checks ctx between iterations: when it is cancelled or its deadline
// expires, the solver returns within one iteration with the partial
// solution, Result.Stopped set to the context's error, and Result.Reason
// set to ReasonCanceled or ReasonDeadline. Every class holds the state
// of the last completed lockstep iteration (its seed state when the run
// never started), so Predict and the other Result accessors stay usable
// on a partial result. A nil ctx is treated as context.Background().
func (m *Model) RunContext(ctx context.Context, opts ...RunOption) *Result {
	return m.runClasses(orBackground(ctx), nil, resolveOptions(opts))
}

// warmFn supplies per-class warm starting vectors; nil starts cold.
type warmFn func(c int) (x, z vec.Vector, ok bool)

// runClasses runs the class solve once and, when the attempt hits a
// retryable corruption fault, re-runs it exactly once from its own start
// (cold, or the caller's warm start) with the AVX2 kernels demoted to
// the scalar reference bodies — the recovery path for a misbehaving
// vector unit. The kernels are deterministic and scalar ≡ AVX2 bitwise,
// so after a transient fault the re-run is bitwise the clean run. A
// fault that reproduces on the demoted attempt stops the run with the
// last healthy state and ReasonNumericalFault.
func (m *Model) runClasses(ctx context.Context, warm warmFn, ro runOptions) *Result {
	res, flt := m.runClassesOnce(ctx, warm, ro)
	if flt == nil || !flt.retryable {
		return res
	}
	if ro.noASM || (ro.guards != nil && ro.guards.NoRetry) || ctx.Err() != nil {
		return res
	}
	regGuardRetries.Inc()
	ro.noASM = true
	res2, _ := m.runClassesOnce(ctx, warm, ro)
	// The first attempt's fault stays on the record of the run that
	// recovered from it.
	res2.Faults = append([]Fault{flt.fault}, res2.Faults...)
	return res2
}

// runClassesOnce is one full solve attempt: scratch build, the engine
// (or the approximate tier), fault bookkeeping, finishRun. The returned
// runFault is the guard verdict that stopped the engine, the input to
// the retry decision.
func (m *Model) runClassesOnce(ctx context.Context, warm warmFn, ro runOptions) (*Result, *runFault) {
	q := m.graph.Q()
	rs := m.newRunScratch(ro, q)
	defer rs.close()
	res := &Result{
		Classes: make([]ClassResult, q),
		n:       m.graph.N(),
		m:       m.graph.M(),
		q:       q,
	}
	var flt *runFault
	if ro.approximate {
		if err := m.runApproximate(ctx, res, rs); err != nil {
			res.Reason, res.Stopped = ReasonNumericalFault, err
		}
	} else {
		flt = m.solveClasses(ctx, res, warm, rs)
	}
	if flt != nil {
		res.Faults = append(res.Faults, flt.fault)
		res.Reason, res.Stopped = flt.reason()
	}
	m.finishRun(ctx, res, rs)
	return res, flt
}

// solveClasses runs every class through one coupled engine block; a nil
// warm starts every class cold from its seed vector.
func (m *Model) solveClasses(ctx context.Context, res *Result, warm warmFn, rs *runScratch) *runFault {
	cols := make([]engineCol, m.graph.Q())
	for c := range cols {
		cols[c].columnState = m.classColumn(c, warm, rs.opts.accelerate)
	}
	e := m.newEngine(rs, cols)
	e.stopOnFault = true
	if m.cfg.ICAUpdate {
		e.argmax = make([]int, m.graph.N())
	}
	flt := e.run(ctx)
	for c := range cols {
		res.Classes[c] = cols[c].classResult(c)
	}
	return flt
}

// classColumn builds class c's engine column: the eq. (11) seed restart
// vector, the class's reseed roles under the ICA update (its own labels
// seed, other classes' labels are excluded), and — when warm supplies
// one — the warm start.
func (m *Model) classColumn(c int, warm warmFn, accelerate bool) columnState {
	l, seeds := m.seedVector(c)
	cs := columnState{l: l, seeds: seeds, quality: QualityExact}
	if accelerate {
		cs.quality = QualityAccelerated
	}
	if m.cfg.ICAUpdate {
		cs.label = make([]uint8, len(l))
		for i := range cs.label {
			switch {
			case m.graph.HasLabel(i, c):
				cs.label[i] = nodeSeed
			case m.graph.Labeled(i):
				cs.label[i] = nodeExcluded
			}
		}
	}
	if warm != nil {
		if x, z, ok := warm(c); ok {
			cs.warmX, cs.warmZ = x, z
		}
	}
	return cs
}

// classResult reports a finished engine column as class c's solution.
func (c *engineCol) classResult(class int) ClassResult {
	r := &c.res
	return ClassResult{
		Class: class, X: r.X, Z: r.Z,
		Iterations: r.Iterations, Converged: r.Converged,
		Trace: r.Trace, Seeds: r.Seeds, Restart: c.l,
	}
}

func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func resolveOptions(opts []RunOption) runOptions {
	var ro runOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&ro)
		}
	}
	return ro
}

// finishRun stamps the stop reason, fills the caller's RunStats, and
// publishes the run's aggregates to the process-wide metrics registry.
// A reason already stamped by a guard (numerical fault, stagnation) is
// kept — the guard verdict is more specific than anything derivable
// here.
func (m *Model) finishRun(ctx context.Context, res *Result, rs *runScratch) {
	if res.Reason == ReasonUnknown {
		if err := ctx.Err(); err != nil {
			res.Stopped = err
			if errors.Is(err, context.DeadlineExceeded) {
				res.Reason = ReasonDeadline
			} else {
				res.Reason = ReasonCanceled
			}
		} else if res.Converged() {
			res.Reason = ReasonConverged
		} else {
			res.Reason = ReasonMaxIterations
		}
	}

	rs.finishStats(len(res.Classes), func(i int) ClassStats {
		cr := &res.Classes[i]
		return columnStats(cr.Class, cr.Iterations, cr.Converged, cr.Trace)
	})
	publishAccel(&rs.accel)
	publishRun(res, rs.opts.stats)
}

// finishStats fills the run's RunStats, when it asked for one, with the
// collector's view, the worker count, the extrapolation counters and
// the iteration record col(i) of each of its n columns.
func (rs *runScratch) finishStats(n int, col func(i int) ClassStats) {
	st := rs.opts.stats
	if st == nil {
		return
	}
	rs.col.Finish(st)
	st.Workers = rs.workers
	st.AccelProposed = rs.accel.Proposed
	st.AccelAccepted = rs.accel.Accepted
	st.AccelRejected = rs.accel.Rejected
	st.Iterations = 0
	st.Classes = st.Classes[:0]
	for i := 0; i < n; i++ {
		cs := col(i)
		st.Iterations += cs.Iterations
		st.Classes = append(st.Classes, cs)
	}
}

// columnStats summarises one column's iteration history.
func columnStats(class, iterations int, converged bool, trace []float64) ClassStats {
	final := 0.0
	if len(trace) > 0 {
		final = trace[len(trace)-1]
	}
	return ClassStats{
		Class:         class,
		Iterations:    iterations,
		Converged:     converged,
		FinalResidual: final,
		Residuals:     append([]float64(nil), trace...),
	}
}

// publishAccel adds one run's extrapolation activity to the registry.
func publishAccel(c *accel.Counters) {
	if c.Proposed > 0 {
		regAccelProposed.Add(c.Proposed)
		regAccelAccepted.Add(c.Accepted)
		regAccelRejected.Add(c.Rejected)
	}
}

// The solver's standing metrics in the process-wide registry. Cheap
// aggregates (run and iteration counters) are published after every run;
// the per-kernel timers gain data only from runs that collected stats.
var (
	regRuns       = obs.Default().Counter("tmark_runs_total")
	regStopped    = obs.Default().Counter("tmark_runs_stopped_total")
	regIterations = obs.Default().Counter("tmark_iterations_total")
	// Fault-tolerance aggregates: guard trips and demoted retries.
	regNumericalFaults = obs.Default().Counter("tmark_numerical_faults_total")
	regStagnations     = obs.Default().Counter("tmark_stagnations_total")
	regGuardRetries    = obs.Default().Counter("tmark_guard_retries_total")
	// Extrapolated-power-method activity: candidates built, vetted in,
	// and discarded (see WithAcceleration).
	regAccelProposed = obs.Default().Counter("tmark_accel_proposed_total")
	regAccelAccepted = obs.Default().Counter("tmark_accel_accepted_total")
	regAccelRejected = obs.Default().Counter("tmark_accel_rejected_total")
	regKernels       = func() [obs.NumKernels]*obs.Timer {
		var ts [obs.NumKernels]*obs.Timer
		for _, k := range obs.Kernels() {
			ts[k] = obs.Default().Timer("tmark_kernel_" + k.String())
		}
		return ts
	}()
)

func publishRun(res *Result, st *RunStats) {
	regRuns.Inc()
	if res.Stopped != nil {
		regStopped.Inc()
	}
	iters := 0
	for i := range res.Classes {
		iters += res.Classes[i].Iterations
	}
	regIterations.Add(int64(iters))
	if st != nil {
		for _, ks := range st.Kernels {
			if ks.Calls > 0 {
				regKernels[ks.Kernel].Observe(ks.Time)
			}
		}
	}
}

// runScratch bundles one run's worker pool, blocked kernel scratch,
// telemetry collector and options. The buffers are reused across
// iterations, so steady-state iterations allocate nothing in the
// kernels. A runScratch is owned by one goroutine; concurrent runs each
// build their own, which keeps the Model itself read-only during
// solving. A nil pool selects the serial kernel paths; a nil collector
// (the default) reduces every telemetry touch to a branch.
type runScratch struct {
	pool  *par.Pool
	ob    *tensor.NodeBatchScratch
	rb    *tensor.RelationBatchScratch
	wCSRb *sparse.MulBatchScratch
	wDenb *vec.MulBatchScratch

	// wS/wD are the feature matrix's resolved dynamic type, fixed once per
	// run so the per-pass wrapper dispatches on a nil check instead of
	// re-running a type switch every iteration. At most one is non-nil.
	wS *sparse.Matrix
	wD *vec.Matrix

	col     *obs.Collector
	opts    runOptions
	workers int

	// accel aggregates the run's extrapolation activity (WithAcceleration);
	// filled by the engine, published by finishRun and SolveColumns.
	accel accel.Counters
}

// newRunScratch builds the pool, kernel scratch and collector for one
// solver run whose blocks hold at most maxCols columns: the graph's q
// classes for a class run, the query count for SolveColumns. The kernel
// scratch is sized for the widest stride those columns are laid out at.
func (m *Model) newRunScratch(ro runOptions, maxCols int) *runScratch {
	w := m.cfg.workerCount()
	if ro.workers > 0 {
		w = ro.workers
	}
	rs := &runScratch{opts: ro, workers: w}
	if ro.stats != nil {
		rs.col = obs.NewCollector()
	}
	switch fw := m.w.(type) {
	case *sparse.Matrix:
		rs.wS = fw
	case *vec.Matrix:
		rs.wD = fw
	}
	if w > 1 {
		rs.pool = par.NewObserved(w, rs.col.AttachPool(w))
	}
	// The tensor kernels run on their batch scratch at every worker
	// count: it holds the column sums and R's chunk partials.
	stride := vec.Stride(maxCols)
	rs.ob = tensor.NewNodeBatchScratch(m.o, w, stride)
	rs.ob.NoASM = ro.noASM
	rs.rb = tensor.NewRelationBatchScratch(m.r, w, stride)
	rs.rb.NoASM = ro.noASM
	// The CSR scratch exists for every worker count too: it carries the
	// demotion to the serial product as well as the sharded one.
	switch {
	case rs.wS != nil:
		rs.wCSRb = sparse.NewMulBatchScratch(w)
		rs.wCSRb.NoASM = ro.noASM
	case rs.wD != nil && w > 1:
		rs.wDenb = vec.NewMulBatchScratch(w)
	}
	return rs
}

func (rs *runScratch) close() {
	if rs != nil {
		rs.pool.Close()
	}
}

// The engine's kernel wrappers: the blocked kernels on the run's pool
// (nil runs them inline) over blocks at the given stride. Each is timed
// under the collector as one call over its stored entries, applied to
// the active columns: the lanes past them are layout, not work.

func (rs *runScratch) applyNodeBatch(o *tensor.NodeTransition, x, z, dst []float64, stride, active int) {
	start := rs.col.Clock()
	o.ApplyBatchParallel(rs.pool, rs.ob, x, z, dst, stride)
	rs.col.StopKernel(obs.KernelO, start, o.NNZ(), active)
}

func (rs *runScratch) applyRelationBatch(r *tensor.RelationTransition, x, dst []float64, stride, active int) {
	start := rs.col.Clock()
	r.ApplyBatchParallel(rs.pool, rs.rb, x, dst, stride)
	rs.col.StopKernel(obs.KernelR, start, r.NNZ(), active)
}

func (rs *runScratch) mulFeatureBatch(x, dst []float64, stride, active int) {
	start := rs.col.Clock()
	var items int
	switch {
	case rs.wS != nil:
		// A nil pool runs the serial product, under the scratch's NoASM.
		rs.wS.MulVecBatchParallel(rs.pool, rs.wCSRb, x, dst, stride)
		items = rs.wS.NNZ()
	case rs.wD != nil:
		rs.wD.MulVecBatchParallel(rs.pool, rs.wDenb, x, dst, stride)
		items = rs.wD.Rows * rs.wD.Cols
	default:
		// New only ever builds a CSR or dense W; failing loudly beats
		// silently leaving dst stale.
		panic("tmark: the engine requires a CSR or dense feature matrix")
	}
	rs.col.StopKernel(obs.KernelW, start, items, active)
}

// timeKernel times one pass (fn) under kernel k, crediting the streamed
// items and the columns they cover.
func (rs *runScratch) timeKernel(k obs.Kernel, items, cols int, fn func()) {
	start := rs.col.Clock()
	fn()
	rs.col.StopKernel(k, start, items, cols)
}
